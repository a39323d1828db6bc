#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/backend.hpp"
#include "nn/executor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/circuit_cache.hpp"
#include "runtime/thread_pool.hpp"

namespace deepseq::runtime {

/// One embedding query: a strict sequential AIG, the workload defining its
/// PI behaviour, the backend to encode with (non-owning — the caller keeps
/// the instance alive until the request is fulfilled; api::Session does so
/// by capturing an owning handle in its submit_then completion, which is
/// what lets it hot-swap backends under reload_weights without touching
/// in-flight work), and the init seed that makes the forward pass
/// reproducible (paper convention: non-PI states are seeded randomly per
/// sample).
struct EmbeddingRequest {
  std::shared_ptr<const Circuit> circuit;
  Workload workload;
  const api::EmbeddingBackend* backend = nullptr;
  std::uint64_t init_seed = 1;
  /// Compute the N x hidden forward pass (disable for tasks that only need
  /// the prepared structure, e.g. reliability / testability readouts).
  bool want_embedding = true;
  /// Resolve + return the backend structure state even when the embedding
  /// is served from cache (tasks that read the structure set this).
  bool want_state = false;
  /// Observability identity (task id / kind / backend fingerprint) the
  /// request's spans and failure counters are attributed to. api::Session
  /// fills it in submit()/run_sync(); a default (null-kind) context marks
  /// an untraced engine-level request — no spans, no task counters.
  obs::TaskContext trace;
};

/// The fulfilled side of a request. `embedding` is the N x hidden final
/// node-state matrix h_v^T — bit-identical to what a direct
/// single-threaded call to the backend's embed() produces for the same
/// inputs. `state` is the backend's prepared structure when the request
/// asked for it (want_state, or any computed forward pass).
struct EmbeddingResult {
  std::shared_ptr<const nn::Tensor> embedding;
  std::shared_ptr<const api::BackendState> state;
  StructuralHash structure;
  /// The full embedding-layer cache key of this request: task heads reuse it
  /// to cache their own derived outputs (InferenceEngine::regress_cached).
  EmbeddingKey key;
  const api::EmbeddingBackend* backend = nullptr;
  bool structure_cache_hit = false;
  bool embedding_cache_hit = false;
  double queue_ms = 0.0;    // submit -> start of compute (waiting only)
  double compute_ms = 0.0;  // circuit hash + structure resolve + forward
  double total_ms = 0.0;    // submit -> fulfillment
  /// The request's observability identity, passed through so task heads
  /// (api::Session::finish) record their spans under the same task id.
  obs::TaskContext trace;
};

struct EngineConfig {
  /// Worker threads; <= 0 uses hardware concurrency.
  int threads = 4;
  /// Intra-circuit parallelism: threads the nn executor may use for one
  /// forward pass, drawn from the SAME worker pool (no second pool). 0
  /// resolves DEEPSEQ_NN_THREADS (default: the pool size); 1 keeps every
  /// forward pass sequential on its worker.
  int nn_threads = 0;
  /// Coalescing window: a partial batch is dispatched once it reaches this
  /// many requests...
  int max_batch = 8;
  /// ...or once the oldest pending request has waited this long.
  double flush_interval_ms = 2.0;
  CircuitCacheConfig cache;
  /// Disable to force a full forward pass per request (reference /
  /// cold-path measurement); the structure layer stays active.
  bool cache_embeddings = true;
};

/// Multi-threaded batched scheduler over pluggable api::EmbeddingBackend
/// implementations. The engine owns no models: every request names the
/// backend that serves it, and cache entries are keyed by the backend's
/// deterministic fingerprint — the public serving surface is api::Session.
///
/// submit() never blocks on inference: requests accumulate in a pending
/// window and are coalesced into batches (grouped by circuit identity so a
/// batch's structure work — the backend's prepare() — happens once per
/// distinct circuit), then fan out across the worker pool. Results arrive
/// through futures with per-request latency breakdowns; submit_then()
/// additionally runs a caller-supplied completion (e.g. a task head) on the
/// worker thread. All public methods are thread-safe.
class InferenceEngine {
 public:
  explicit InferenceEngine(const EngineConfig& config);
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  const EngineConfig& config() const { return config_; }

  /// Enqueue a request; the future is fulfilled by a worker thread (or
  /// carries the exception the forward pass threw, e.g. on a workload/PI
  /// size mismatch).
  std::future<EmbeddingResult> submit(EmbeddingRequest request) {
    return submit_then(std::move(request),
                       [](EmbeddingResult&& r) { return std::move(r); });
  }

  /// Enqueue a request plus a completion that maps the EmbeddingResult to
  /// the caller's result type on the worker thread (the api layer's task
  /// heads). Exceptions from the forward pass or the completion both land
  /// in the returned future.
  template <typename F>
  auto submit_then(EmbeddingRequest request, F post)
      -> std::future<std::invoke_result_t<F&, EmbeddingResult&&>> {
    using R = std::invoke_result_t<F&, EmbeddingResult&&>;
    auto promise = std::make_shared<std::promise<R>>();
    std::future<R> future = promise->get_future();
    auto pending = std::make_unique<Pending>();
    // For failure accounting: the completion (a task head) may throw after
    // the forward pass succeeded — count that against the task's kind too.
    const char* kind = request.trace.kind;
    pending->request = std::move(request);
    pending->deliver = [promise, post = std::move(post),
                        kind](EmbeddingResult&& result) mutable {
      try {
        promise->set_value(post(std::move(result)));
      } catch (...) {
        obs::count_task_failed(kind);
        promise->set_exception(std::current_exception());
      }
    };
    pending->fail = [promise](std::exception_ptr e) {
      promise->set_exception(std::move(e));
    };
    enqueue(std::move(pending));
    return future;
  }

  /// Dispatch the current partial batch immediately.
  void flush();

  /// flush() + block until every dispatched request has been fulfilled.
  void drain();

  /// Reference path: compute one request synchronously on the calling
  /// thread through the same cache. Batched and sync results for identical
  /// inputs are bit-identical.
  EmbeddingResult run_sync(const EmbeddingRequest& request);

  /// Regression-head outputs for an embedding, cached beside the embedding
  /// under the same EmbeddingKey: warm multi-task probability/power traffic
  /// skips the two-head MLP forward. Falls through to a direct (uncached)
  /// regress when embedding caching is disabled. Runs on the engine's nn
  /// executor either way.
  std::shared_ptr<const api::Regression> regress_cached(
      const EmbeddingKey& key, const api::EmbeddingBackend& backend,
      const nn::Tensor& embedding, bool* cache_hit = nullptr);

  CircuitCache::Stats cache_stats() const { return cache_.stats(); }
  int num_threads() const { return pool_.num_threads(); }
  /// Intra-circuit executor threads (the resolved nn_threads knob).
  int nn_threads() const { return nn_exec_.threads(); }

 private:
  struct Pending {
    EmbeddingRequest request;
    std::chrono::steady_clock::time_point enqueued;
    std::function<void(EmbeddingResult&&)> deliver;
    std::function<void(std::exception_ptr)> fail;
  };

  /// Both circuit digests, computed once per coalesced group (by its first
  /// request's resolve stage) so the warm path does not re-hash per request.
  struct CircuitHashes {
    StructuralHash structural;
    std::uint64_t exact = 0;
  };

  void enqueue(std::unique_ptr<Pending> pending);
  void flusher_loop();
  void dispatch_batch(std::vector<std::unique_ptr<Pending>> batch);
  EmbeddingResult process(const EmbeddingRequest& request,
                          std::chrono::steady_clock::time_point enqueued,
                          std::optional<CircuitHashes>& hashes);
  std::shared_ptr<const api::BackendState> resolve_structure(
      const api::EmbeddingBackend& backend, const Circuit& circuit,
      const StructureKey& key, bool* hit);

  EngineConfig config_;
  CircuitCache cache_;
  ThreadPool pool_;
  /// The intra-circuit executor, sharing pool_ (declared after it, so
  /// helpers never outlive their pool).
  nn::Executor nn_exec_;

  std::mutex pending_mu_;
  std::condition_variable pending_cv_;
  std::vector<std::unique_ptr<Pending>> pending_;
  bool stop_ = false;
  std::thread flusher_;
};

}  // namespace deepseq::runtime

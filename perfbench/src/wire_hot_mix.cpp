// wire-hot-mix: nproc client connections in a closed loop against an
// in-process serve::Server on a loopback port (2 shards). All six task
// kinds are interleaved equally over a hot set of circuits x workloads that
// fits the caches, and set-up warms every entry, so nearly every forward
// pass is a cache hit: time goes to the wire protocol, admission, routing,
// cache lookup, hashing and the uncached heads (reliability, testability).
// One op is one task reply. Every reply is checked bit for bit against the
// single-threaded in-process reference result.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "dataset/generator.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/workload.hpp"

namespace perfbench {

using namespace deepseq;

namespace {

constexpr int kKinds = serve::kNumTaskKinds;
constexpr int kShards = 2;
/// The trace sink keeps 2^15 events and a served task records up to six,
/// so a traced window stops before it could overwrite its own spans.
constexpr std::uint64_t kTracedOpCap = 4000;
constexpr std::uint64_t kCircuitSeed = 2024;
/// Replies per latency block (see Phase::latency_blocks): a block's p99
/// has ten replies beyond it.
constexpr std::size_t kBlockOps = 1000;

struct HotSet {
  std::vector<std::shared_ptr<const Circuit>> circuits;
  std::vector<Workload> workloads;  // circuit-major, hot_workloads each
  int per_circuit = 1;
  std::uint64_t seed = 1;
  std::vector<std::uint64_t> expected;  // digest per (entry, kind)

  std::size_t entries() const { return workloads.size(); }
  api::TaskRequest request(std::size_t entry, int kind) const {
    api::TaskRequest r;
    r.circuit = circuits[entry / static_cast<std::size_t>(per_circuit)];
    r.workload = workloads[entry];
    r.task = static_cast<api::TaskKind>(kind);
    return r;
  }
  /// Op i asks for kind i % 6. The six kinds of one round go to entries
  /// spread a sixth of the set apart (concurrent clients hit different
  /// circuits), and every kind visits every entry once per E rounds.
  std::size_t entry_of(std::uint64_t op) const {
    const std::uint64_t n = entries();
    const std::uint64_t kind = op % kKinds;
    return static_cast<std::size_t>((op / kKinds + kind * (n / kKinds) + seed) % n);
  }
};

HotSet make_hot_set(const Sizes& z, std::uint64_t seed) {
  HotSet h;
  h.per_circuit = z.hot_workloads;
  h.seed = seed;
  // The circuits come from a fixed generator seed: the uncached heads'
  // cost follows circuit depth, which varies enough between random hot sets
  // to swamp run-to-run noise, and shard placement would vary with it. The
  // seed drives the workloads and the request order.
  Rng rng(kCircuitSeed);
  Rng wrng(seed);
  for (int i = 0; i < z.hot_circuits; ++i) {
    GeneratorSpec spec;
    spec.name = "hot" + std::to_string(i);
    spec.num_pis = 4 + i % 8;
    spec.num_ffs = 2 + (i * 3) % 8;
    spec.num_gates = 40 + (i * 37) % 100;
    for (double& w : spec.gate_weights) w = 0.0;
    spec.gate_weights[static_cast<int>(GateType::kAnd)] = 4.0;
    spec.gate_weights[static_cast<int>(GateType::kNot)] = 2.0;
    h.circuits.push_back(std::make_shared<const Circuit>(generate_circuit(spec, rng)));
    for (int w = 0; w < z.hot_workloads; ++w)
      h.workloads.push_back(random_workload(*h.circuits.back(), wrng));
  }
  api::Session reference(reference_config());
  for (std::size_t e = 0; e < h.entries(); ++e)
    for (int k = 0; k < kKinds; ++k)
      h.expected.push_back(output_digest(reference.run_sync(h.request(e, k))));
  return h;
}

struct Traffic {
  std::vector<double> latency_ms, wire_ms, queue_ms;
  std::vector<double> done_at_s;  // completion time of latency_ms[i]
  struct Sample {
    api::TaskRequest request;
    serve::TaskReply reply;
  };
  std::vector<Sample> samples;  // for the codec timings
  std::uint64_t wrong = 0;
};

/// Runs the closed loop for `seconds` (or `op_cap` ops) and returns the
/// phase; client-side readings are appended to `t`.
Phase drive(std::uint16_t port, const HotSet& h, int clients, double seconds,
            std::uint64_t op_cap, std::atomic<std::uint64_t>& cursor,
            Traffic& t) {
  Phase p;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> done{0}, attempted{0}, failed{0};
  std::mutex merge_mu;
  std::vector<std::thread> threads;
  const Stopwatch clock;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      Traffic local;
      try {
        serve::Client client(port);
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t op = cursor.fetch_add(1);
          const std::size_t entry = h.entry_of(op);
          const int kind = static_cast<int>(op % kKinds);
          const api::TaskRequest req = h.request(entry, kind);
          attempted.fetch_add(1);
          const Clock::time_point t0 = Clock::now();
          try {
            serve::TaskReply reply = client.run(req);
            const double rtt = seconds_since(t0) * 1e3;
            local.latency_ms.push_back(rtt);
            local.done_at_s.push_back(clock.elapsed_s());
            local.wire_ms.push_back(rtt - reply.result.total_ms);
            local.queue_ms.push_back(reply.result.queue_ms);
            if (output_digest(reply.result) !=
                h.expected[entry * kKinds + static_cast<std::size_t>(kind)])
              ++local.wrong;
            if (local.samples.size() < 16 && op % 7 == 0)
              local.samples.push_back({req, std::move(reply)});
            done.fetch_add(1);
          } catch (const std::exception&) {
            failed.fetch_add(1);
          }
        }
      } catch (const std::exception&) {
        failed.fetch_add(1);
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      auto append = [](std::vector<double>& into, const std::vector<double>& v) {
        into.insert(into.end(), v.begin(), v.end());
      };
      append(t.latency_ms, local.latency_ms);
      append(t.done_at_s, local.done_at_s);
      append(t.wire_ms, local.wire_ms);
      append(t.queue_ms, local.queue_ms);
      for (auto& s : local.samples) t.samples.push_back(std::move(s));
      t.wrong += local.wrong;
    });
  }
  while (clock.elapsed_s() < seconds && done.load() < op_cap)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop = true;
  for (std::thread& th : threads) th.join();
  clock.add_to(p);
  p.ops = done.load();
  p.attempted = attempted.load();
  p.failed = failed.load();
  p.latency_ms = t.latency_ms;

  // Blocks of kBlockOps replies in completion order; the remainder joins
  // the last block, so every reply counts whatever the throughput.
  std::vector<std::size_t> order(t.done_at_s.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&t](std::size_t a, std::size_t b) {
    return t.done_at_s[a] < t.done_at_s[b];
  });
  const std::size_t blocks = std::max<std::size_t>(1, order.size() / kBlockOps);
  p.latency_blocks.resize(blocks);
  for (std::size_t i = 0; i < order.size(); ++i)
    p.latency_blocks[std::min(i / kBlockOps, blocks - 1)].push_back(
        t.latency_ms[order[i]]);
  return p;
}

struct ShardReading {
  std::vector<std::uint64_t> served;
  std::uint64_t shed = 0;
  runtime::CircuitCache::Stats cache;
};

ShardReading read_shards(serve::ShardRouter& router) {
  ShardReading out;
  for (int i = 0; i < router.num_shards(); ++i) {
    const serve::ShardRouter::ShardStats s = router.shard_stats(i);
    out.served.push_back(s.served);
    for (std::uint64_t n : s.admission.shed) out.shed += n;
    for (auto [into, from] :
         {std::pair{&out.cache.structures, &s.cache.structures},
          std::pair{&out.cache.embeddings, &s.cache.embeddings},
          std::pair{&out.cache.regressions, &s.cache.regressions}}) {
      into->hits += from->hits;
      into->misses += from->misses;
      into->evictions += from->evictions;
    }
  }
  return out;
}

/// Mean microseconds per call of the codec on the run's own messages.
void report_codec(Report& r, const std::vector<Traffic::Sample>& samples) {
  if (samples.empty()) return;
  constexpr int kReps = 20;
  std::vector<serve::TaskRequestMsg> requests;
  std::vector<serve::TaskResponseMsg> responses;
  for (const Traffic::Sample& s : samples) {
    serve::TaskRequestMsg m;
    m.request_id = 1;
    m.task = s.request.task;
    m.circuit = *s.request.circuit;
    m.workload = s.request.workload;
    requests.push_back(std::move(m));
    responses.push_back(
        {1, static_cast<std::uint32_t>(s.reply.shard), s.reply.result});
  }
  std::vector<std::string> req_payloads(samples.size()), resp_payloads(samples.size());
  const Clock::time_point e0 = Clock::now();
  for (int rep = 0; rep < kReps; ++rep)
    for (std::size_t i = 0; i < samples.size(); ++i) {
      req_payloads[i] = serve::encode(requests[i]);
      resp_payloads[i] = serve::encode(responses[i]);
    }
  const double encode_s = seconds_since(e0);
  const Clock::time_point d0 = Clock::now();
  for (int rep = 0; rep < kReps; ++rep)
    for (std::size_t i = 0; i < samples.size(); ++i) {
      (void)serve::decode_task_request(req_payloads[i]);
      (void)serve::decode_task_response(resp_payloads[i]);
    }
  const double decode_s = seconds_since(d0);
  const double calls = 2.0 * kReps * static_cast<double>(samples.size());
  r.set("serve.encode_us", encode_s * 1e6 / calls, "us",
        static_cast<std::uint64_t>(calls));
  r.set("serve.decode_us", decode_s * 1e6 / calls, "us",
        static_cast<std::uint64_t>(calls));
}

}  // namespace

Report run_wire_hot_mix(const Options& o) {
  Report r;
  const HotSet hot = make_hot_set(o.sizes, o.seed);
  const int clients = static_cast<int>(
      std::max(1u, std::min(4u, std::thread::hardware_concurrency())));

  serve::ServeConfig cfg;
  cfg.router.shards = kShards;
  cfg.router.workers_per_shard = 2;
  cfg.router.admission.default_depth = 64;
  // One engine thread per shard: forward passes of these ~100-gate
  // circuits run sequentially on the shard worker. Intra-circuit
  // parallelism is sweep-interactive's subject; here its helper threads
  // would only spin beside the clients and make the tail follow host load.
  cfg.router.session.engine.threads = 1;

  // Set-up: a Server plus one pass over every hot (entry, kind), which
  // fills each shard's caches. Repeated; the last one serves the window.
  std::vector<double> setups;
  std::unique_ptr<serve::Server> server;
  for (int k = 0; k < o.sizes.setups; ++k) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<serve::Server>(cfg);
    // Pipelined in windows that stay inside every admission queue's depth.
    serve::Client warm(server->port());
    std::vector<std::future<serve::TaskReply>> replies;
    for (std::size_t e = 0; e < hot.entries(); ++e) {
      for (int kind = 0; kind < kKinds; ++kind)
        replies.push_back(warm.submit(hot.request(e, kind)));
      if (replies.size() >= 8 * kKinds || e + 1 == hot.entries()) {
        for (auto& f : replies) (void)f.get();
        replies.clear();
      }
    }
    setups.push_back(seconds_since(t0));
  }
  r.note(std::to_string(clients) + " client connections, " +
         std::to_string(kShards) + " shards, hot set " +
         std::to_string(hot.circuits.size()) + " circuits x " +
         std::to_string(o.sizes.hot_workloads) + " workloads x 6 kinds");

  const obs::Snapshot before = obs::Registry::global().snapshot();
  std::atomic<std::uint64_t> cursor{0};
  Traffic traffic;
  if (!o.trace) {
    const Phase p = drive(server->port(), hot, clients, o.seconds, ~0ULL,
                          cursor, traffic);
    report_end_to_end(r, p, median(setups));
  } else {
    Traffic plain_traffic;
    const Phase plain = drive(server->port(), hot, clients, o.seconds / 2,
                              ~0ULL, cursor, plain_traffic);
    const ShardReading s0 = read_shards(server->router());
    const obs::Snapshot t0 = obs::Registry::global().snapshot();
    SpanStats spans;
    Phase traced;
    {
      TraceWindow window;
      traced = drive(server->port(), hot, clients, o.seconds / 2, kTracedOpCap,
                     cursor, traffic);
      TraceWindow::harvest(spans);
    }
    const obs::Snapshot win = obs::delta(obs::Registry::global().snapshot(), t0);
    const ShardReading s1 = read_shards(server->router());
    report_engine_layers(r, spans, win, traffic.queue_ms);
    report_cache(r, s0.cache, s1.cache);
    report_trace_overhead(r, plain, traced);

    const auto nw = static_cast<std::uint64_t>(traffic.wire_ms.size());
    r.set("serve.wire_ms.p50", percentile(traffic.wire_ms, 0.50), "ms", nw);
    r.set("serve.wire_ms.p99", percentile(traffic.wire_ms, 0.99), "ms", nw);
    report_codec(r, traffic.samples);
    double max_served = 0, sum_served = 0;
    for (std::size_t i = 0; i < s1.served.size(); ++i) {
      const auto d = static_cast<double>(s1.served[i] - s0.served[i]);
      max_served = std::max(max_served, d);
      sum_served += d;
    }
    const double mean_served = sum_served / static_cast<double>(s1.served.size());
    r.set("serve.shard_skew", mean_served > 0 ? max_served / mean_served : 0.0,
          "ratio");
    r.set("serve.shed", static_cast<double>(s1.shed - s0.shed), "count");
    traffic.wrong += plain_traffic.wrong;
  }

  const obs::Snapshot window = obs::delta(obs::Registry::global().snapshot(), before);
  check_task_balance(r, window);
  const std::uint64_t arrived = counter_prefix(window, "serve.requests.");
  const std::uint64_t ended = counter_prefix(window, "serve.completed.") +
                              counter_prefix(window, "serve.failed.") +
                              counter_prefix(window, "serve.shed.");
  if (arrived != ended)
    r.wrong("obs balance: serve.requests " + std::to_string(arrived) +
            " != completed + failed + shed " + std::to_string(ended));
  if (traffic.wrong > 0)
    r.wrong(std::to_string(traffic.wrong) +
                " wire replies differ from the in-process reference result",
            traffic.wrong);
  server.reset();
  return r;
}

}  // namespace perfbench

// finetune: Trainer::fit over a generated training set, one epoch per call.
// Set-up builds the set with build_training_dataset (simulation, the only
// place the sim layer is measured), builds the models and runs one warm-up
// epoch each. This is the only workload running nn backward, Adam and the
// graph (non-slab) path. One op is one training sample; its latency is the
// epoch's wall time per sample.
//
// nproc (at most 4) independent training jobs run at once, each its own
// model and Trainer on its own thread under a sequential nn executor, in a
// closed loop like the other workloads' clients. Intra-circuit parallelism
// is sweep-interactive's subject. On a shared host the speed of each core
// drifts on its own by up to 2x over seconds: one job on one thread reads
// whichever state its core is in, and helper threads in lockstep with one
// trainer turn every slowed or stolen core into a stall of the whole flush.
// Independent jobs average the cores' states without coupling them. On a
// 4-vCPU Xeon VM one job on one thread also trained faster than one job on
// two or four nn threads (about 96, 77 and 64 samples/s).
//
// The jobs start from the same seed, data and warm-up, so their loss
// trajectories must agree bit for bit epoch by epoch.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "dataset/training_data.hpp"
#include "nn/executor.hpp"

namespace perfbench {

using namespace deepseq;

namespace {

constexpr std::uint64_t kDataSeed = 2024;

std::uint64_t params_digest(const DeepSeqModel& model) {
  Digest d;
  for (const auto& [name, var] : model.params()) d.tensor(var->value);
  return d.h;
}

struct Epoch {
  double wall_s = 0, loss = 0;
  int steps = 0;
};

Epoch epoch(Trainer& trainer, const std::vector<TrainSample>& train,
            bool traced) {
  Epoch e;
  nn::ExecStats stats;
  const Clock::time_point t0 = Clock::now();
  std::vector<EpochStats> history;
  if (traced) {
    nn::ExecTraceScope scope(stats);
    history = trainer.fit(train);
  } else {
    history = trainer.fit(train);
  }
  e.wall_s = seconds_since(t0);
  e.loss = history.empty() ? NAN : history.back().mean_loss;
  e.steps = stats.steps;
  return e;
}

/// One training job: a model, its Trainer and every epoch it ran.
struct Job {
  std::unique_ptr<DeepSeqModel> model;
  std::unique_ptr<Trainer> trainer;
  std::vector<double> losses;  // every epoch since the warm-up, in order
  std::string error;
};

/// Runs `fn(job)` for every job at once, each on its own thread under a
/// sequential nn executor; rethrows the first job's error after all ended.
template <typename Fn>
void on_each_job(std::vector<Job>& jobs, const Fn& fn) {
  std::vector<std::thread> threads;
  for (Job& j : jobs)
    threads.emplace_back([&fn, &j] {
      try {
        nn::Executor sequential;
        const nn::ExecutorScope scope(sequential);
        fn(j);
      } catch (const std::exception& e) {
        j.error = e.what();
      }
    });
  for (std::thread& t : threads) t.join();
  for (const Job& j : jobs)
    if (!j.error.empty()) throw std::runtime_error("training job: " + j.error);
}

}  // namespace

Report run_finetune(const Options& o) {
  Report r;
  // The training set comes from a fixed seed: an epoch's cost follows the
  // set's family mix and subcircuit sizes, which vary between random sets
  // by more than run-to-run noise. The seed drives the model's initial
  // weights and the sample order.
  TrainingDataOptions data;
  data.num_subcircuits = o.sizes.train_samples;
  data.sim_cycles = o.sizes.train_sim_cycles;
  data.size_scale = o.sizes.train_size_scale;
  data.seed = kDataSeed;
  ModelConfig mcfg = ModelConfig::deepseq(32, 4);
  mcfg.seed = o.seed;
  TrainOptions topt;
  topt.epochs = 1;
  topt.lr = 1.5e-3f;
  topt.batch_size = 8;
  topt.shuffle_seed = o.seed;
  const auto num_jobs = static_cast<std::size_t>(
      std::max(1u, std::min(4u, std::thread::hardware_concurrency())));

  // Set-up: simulate the training set, build the models, one warm-up epoch
  // per job. Repeated; every job of every repeat must reach the same
  // weights and loss bit for bit.
  std::vector<double> setups, dataset_s;
  TrainingDataset ds;
  std::vector<Job> jobs;
  std::uint64_t warm_digest = 0;
  double warm_loss = 0;
  for (int k = 0; k < o.sizes.setups; ++k) {
    jobs.clear();
    const Clock::time_point t0 = Clock::now();
    ds = build_training_dataset(data);
    dataset_s.push_back(seconds_since(t0));
    jobs.resize(num_jobs);
    for (Job& j : jobs) {
      j.model = std::make_unique<DeepSeqModel>(mcfg);
      j.trainer = std::make_unique<Trainer>(*j.model, topt);
    }
    std::vector<double> warm(num_jobs);
    on_each_job(jobs, [&](Job& j) {
      warm[static_cast<std::size_t>(&j - jobs.data())] =
          epoch(*j.trainer, ds.samples, false).loss;
    });
    setups.push_back(seconds_since(t0));
    for (std::size_t i = 0; i < num_jobs; ++i) {
      const std::uint64_t digest = params_digest(*jobs[i].model);
      if ((k > 0 || i > 0) && (digest != warm_digest || warm[i] != warm_loss))
        r.wrong("a set-up or job reached different weights or loss");
      warm_digest = digest;
      warm_loss = warm[i];
    }
  }
  const auto samples = static_cast<double>(ds.samples.size());
  char line[160];
  std::snprintf(line, sizeof line,
                "after the warm-up epoch: weights digest %016llx, loss %.17g",
                static_cast<unsigned long long>(warm_digest), warm_loss);
  r.note(line);
  r.note(std::to_string(num_jobs) +
         " training jobs, each on a sequential nn executor");

  std::uint64_t nonfinite = 0;  // samples of epochs whose loss was not finite
  // Epochs of every job over one phase, for the traced per-layer figures.
  std::vector<Epoch> phase_epochs;
  const auto run_phase = [&](double seconds, bool traced) {
    std::vector<std::vector<Epoch>> ran(num_jobs);
    const Stopwatch clock;
    on_each_job(jobs, [&](Job& j) {
      std::vector<Epoch>& mine = ran[static_cast<std::size_t>(&j - jobs.data())];
      do {
        mine.push_back(epoch(*j.trainer, ds.samples, traced));
        j.losses.push_back(mine.back().loss);
      } while (clock.elapsed_s() < seconds);
    });
    Phase p;
    clock.add_to(p);
    phase_epochs.clear();
    for (const std::vector<Epoch>& mine : ran)
      for (const Epoch& e : mine) {
        phase_epochs.push_back(e);
        p.attempted += ds.samples.size();
        p.ops += ds.samples.size();
        p.latency_ms.push_back(e.wall_s * 1e3 / samples);
        if (!std::isfinite(e.loss)) nonfinite += ds.samples.size();
      }
    return p;
  };

  if (!o.trace) {
    const Phase p = run_phase(o.seconds, false);
    report_end_to_end(r, p, median(setups));
  } else {
    const Phase plain = run_phase(o.seconds / 2, false);
    const Phase traced = run_phase(o.seconds / 2, true);
    std::vector<double> epoch_s, ns_per_step;
    for (const Epoch& e : phase_epochs) {
      epoch_s.push_back(e.wall_s);
      if (e.steps > 0) ns_per_step.push_back(e.wall_s * 1e9 / e.steps);
      if (e.steps != phase_epochs.front().steps)
        r.wrong("kernel steps per epoch changed between epochs");
    }
    r.set("train.epoch_s", median(epoch_s), "s", epoch_s.size());
    r.set("train.steps_per_epoch", phase_epochs.front().steps, "count");
    r.set("train.ns_per_step", median(ns_per_step), "ns", ns_per_step.size());
    r.set("sim.dataset_s", median(dataset_s), "s", dataset_s.size());
    report_trace_overhead(r, plain, traced);
  }
  if (nonfinite > 0) r.wrong("non-finite training loss", nonfinite);

  // Identical jobs: epoch i of every job must have the same loss, bit for
  // bit.
  std::size_t common = jobs.front().losses.size();
  for (const Job& j : jobs) common = std::min(common, j.losses.size());
  for (const Job& j : jobs)
    for (std::size_t i = 0; i < common; ++i)
      if (std::bit_cast<std::uint64_t>(j.losses[i]) !=
          std::bit_cast<std::uint64_t>(jobs.front().losses[i])) {
        r.wrong("training jobs with the same inputs diverged at epoch " +
                std::to_string(i));
        break;
      }
  std::snprintf(line, sizeof line,
                "%zu samples, loss %.17g after %zu epochs (every job agrees)",
                ds.samples.size(), jobs.front().losses[common - 1], common);
  r.note(line);
  return r;
}

}  // namespace perfbench

#include "nn/train.hpp"

#include <algorithm>

#include "common/debug_hooks.hpp"
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

namespace dl2f::nn {

namespace {

/// A small persistent worker pool for the per-minibatch slice fan-out.
/// run() hands out task indices through an atomic cursor (the caller
/// participates too) and returns only once every pool worker is parked
/// again, so consecutive generations can never race on the cursor.
/// Scheduling affects nothing observable: slices write disjoint buffers.
class WorkerPool {
 public:
  explicit WorkerPool(std::int32_t extra_workers) {
    threads_.reserve(static_cast<std::size_t>(std::max(extra_workers, 0)));
    for (std::int32_t i = 0; i < extra_workers; ++i) {
      threads_.emplace_back([this, i] { worker_main(i + 1); });
    }
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      const std::scoped_lock lock(mutex_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  /// Execute fn(task, worker) for every task in [0, tasks). Worker 0 is
  /// the calling thread; pool workers are 1..N. Blocks until all tasks
  /// completed AND all pool workers are parked.
  void run(std::int32_t tasks, const std::function<void(std::int32_t, std::int32_t)>& fn) {
    if (tasks <= 0) return;
    if (threads_.empty() || tasks == 1) {
      for (std::int32_t t = 0; t < tasks; ++t) fn(t, 0);
      return;
    }
    {
      const std::scoped_lock lock(mutex_);
      fn_ = &fn;
      tasks_ = tasks;
      cursor_.store(0, std::memory_order_relaxed);
      active_ = static_cast<std::int32_t>(threads_.size());
      ++generation_;
    }
    start_cv_.notify_all();
    for (;;) {
      const std::int32_t t = cursor_.fetch_add(1, std::memory_order_relaxed);
      if (t >= tasks) break;
      fn(t, 0);
    }
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] { return active_ == 0; });
  }

 private:
  void worker_main(std::int32_t id) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::int32_t, std::int32_t)>* fn = nullptr;
      std::int32_t tasks = 0;
      {
        std::unique_lock lock(mutex_);
        start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        fn = fn_;
        tasks = tasks_;
      }
      for (;;) {
        const std::int32_t t = cursor_.fetch_add(1, std::memory_order_relaxed);
        if (t >= tasks) break;
        (*fn)(t, id);
      }
      {
        const std::scoped_lock lock(mutex_);
        --active_;
      }
      done_cv_.notify_all();
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::int32_t, std::int32_t)>* fn_ = nullptr;
  std::int32_t tasks_ = 0;
  std::int32_t active_ = 0;
  std::atomic<std::int32_t> cursor_{0};
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace

void batch_train(Sequential& model, Optimizer& optimizer, const Tensor3& input_shape,
                 std::size_t item_count, const StageFn& stage, const LossFn& loss,
                 const BatchTrainConfig& cfg, Rng& rng, const EpochFn& on_epoch) {
  if (item_count == 0 || cfg.epochs <= 0) return;
  const std::int32_t threads = std::clamp(cfg.threads, 1, 16);
  const std::int32_t bs = std::max(cfg.batch_size, 1);
  const std::int32_t max_slices = (bs + kGradSliceSamples - 1) / kGradSliceSamples;

  // Per-worker arenas (bound lazily ON the worker thread so each worker's
  // buffers come from its own malloc arena) and per-slice gradient
  // buffers — the fixed-order reduction unit.
  std::vector<InferenceContext> contexts(static_cast<std::size_t>(threads));
  std::vector<GradientBuffer> slice_grads(static_cast<std::size_t>(max_slices));
  for (auto& g : slice_grads) g.bind(model);
  std::vector<float> slice_loss(static_cast<std::size_t>(max_slices), 0.0F);
  std::vector<double> slice_metric(static_cast<std::size_t>(max_slices), 0.0);
  GradientBuffer total;
  total.bind(model);

  std::vector<std::size_t> order(item_count);
  std::iota(order.begin(), order.end(), 0);

  WorkerPool pool(threads - 1);

  for (std::int32_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng.engine());
    float epoch_loss = 0.0F;
    double epoch_metric = 0.0;

    for (std::size_t base = 0; base < order.size(); base += static_cast<std::size_t>(bs)) {
      const auto mini =
          static_cast<std::int32_t>(std::min<std::size_t>(static_cast<std::size_t>(bs),
                                                          order.size() - base));
      const std::int32_t slices = (mini + kGradSliceSamples - 1) / kGradSliceSamples;

      const std::function<void(std::int32_t, std::int32_t)> run_slice =
          [&](std::int32_t t, std::int32_t worker) {
            InferenceContext& ctx = contexts[static_cast<std::size_t>(worker)];
            ctx.bind_train(model, input_shape, kGradSliceSamples);
            // Past the (idempotent) binding, the whole slice — staging,
            // batched forward, loss kernels, batched backward — runs in
            // this worker's arena and the preallocated slice gradient
            // buffers: zero allocations, checked in Debug builds.
            const dbg::NoAllocScope no_alloc("batch_train slice compute");
            const std::int32_t lo = t * kGradSliceSamples;
            const std::int32_t n = std::min(kGradSliceSamples, mini - lo);
            Tensor4& in = ctx.input(n);
            for (std::int32_t j = 0; j < n; ++j) {
              stage(order[base + static_cast<std::size_t>(lo + j)], in, j);
            }
            const Tensor4& out = model.forward_batch(ctx);
            Tensor4& lg = ctx.loss_grad();
            float lsum = 0.0F;
            double msum = 0.0;
            for (std::int32_t j = 0; j < n; ++j) {
              const ItemLoss r = loss(order[base + static_cast<std::size_t>(lo + j)],
                                      out.sample(j), out.sample_size(), lg.sample(j));
              lsum += r.loss;
              msum += r.metric;
            }
            auto& grads = slice_grads[static_cast<std::size_t>(t)];
            grads.zero();
            model.backward_batch(ctx, grads);
            slice_loss[static_cast<std::size_t>(t)] = lsum;
            slice_metric[static_cast<std::size_t>(t)] = msum;
          };
      pool.run(slices, run_slice);

      // Fixed-order reduction: slice gradients summed ascending, then one
      // optimizer step — identical bytes at any thread count.
      total.zero();
      for (std::int32_t t = 0; t < slices; ++t) {
        total.add(slice_grads[static_cast<std::size_t>(t)]);
        epoch_loss += slice_loss[static_cast<std::size_t>(t)];
        epoch_metric += slice_metric[static_cast<std::size_t>(t)];
      }
      total.store(model);
      optimizer.step();
    }

    if (on_epoch) {
      const auto n = static_cast<float>(std::max<std::size_t>(order.size(), 1));
      on_epoch(epoch, epoch_loss / n, epoch_metric / static_cast<double>(order.size()));
    }
  }
}

void infer_items(const Sequential& model, const Tensor3& input_shape, std::size_t item_count,
                 const StageFn& stage, const ReadFn& read) {
  InferenceContext ctx;
  ctx.bind(model, input_shape, kInferChunk);
  const auto chunk = static_cast<std::size_t>(kInferChunk);
  for (std::size_t base = 0; base < item_count; base += chunk) {
    const std::size_t n = std::min(chunk, item_count - base);
    Tensor4& in = ctx.input(static_cast<std::int32_t>(n));
    for (std::size_t j = 0; j < n; ++j) stage(base + j, in, static_cast<std::int32_t>(j));
    const Tensor4& out = model.infer_batch(ctx);
    for (std::size_t j = 0; j < n; ++j) {
      read(base + j, out.sample(static_cast<std::int32_t>(j)), out.sample_size());
    }
  }
}

}  // namespace dl2f::nn

#include "engine/executor.h"

#include <sched.h>

#include <algorithm>
#include <utility>

namespace gpmv {

size_t UsableCpus() {
  // A process confined to fewer CPUs (taskset, a cpuset cgroup) than the
  // machine has would only time-slice the extra workers: each preempts
  // the others mid-task, so a task's cost follows the interleaving.
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(ThreadPoolOptions opts)
    : queue_capacity_(std::max<size_t>(1, opts.queue_capacity)),
      shed_when_saturated_(opts.shed_when_saturated),
      fault_(opts.fault),
      obs_(opts.obs) {
  size_t n = opts.num_threads;
  if (n == 0) n = UsableCpus();
  num_threads_ = n;
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

Status ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (GPMV_FAULT_POINT(fault_, "executor.task")) {
      ++stats_.rejected;
      return Status::ResourceExhausted("injected fault: executor.task");
    }
    if (shed_when_saturated_ && !shutdown_ &&
        queue_.size() >= queue_capacity_) {
      // Admission control: reject now rather than park the caller behind a
      // saturated queue — the caller sheds (or degrades inline) instead.
      ++stats_.rejected;
      return Status::ResourceExhausted("task queue saturated");
    }
    not_full_.wait(lk,
                   [this] { return shutdown_ || queue_.size() < queue_capacity_; });
    if (shutdown_) {
      ++stats_.rejected;
      return Status::InvalidArgument("submit after shutdown");
    }
    QueuedTask qt;
    qt.fn = std::move(task);
    if (obs_.queue_wait_us != nullptr) {
      qt.enqueued = std::chrono::steady_clock::now();
    }
    queue_.push_back(std::move(qt));
    ++stats_.submitted;
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
  }
  not_empty_.notify_one();
  return Status::OK();
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (shutdown_ && workers_.empty()) return;
    shutdown_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

ThreadPoolStats ThreadPool::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      not_empty_.wait(lk, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      // Count before running: anyone synchronizing on the task's result
      // (a future, a latch) must observe the counter it contributed.
      ++stats_.executed;
    }
    not_full_.notify_one();
    if (obs_.queue_wait_us != nullptr) {
      const auto waited = std::chrono::steady_clock::now() - task.enqueued;
      obs_.queue_wait_us->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(waited)
              .count()));
    }
    if (obs_.run_us != nullptr) {
      const auto begin = std::chrono::steady_clock::now();
      task.fn();
      const auto ran = std::chrono::steady_clock::now() - begin;
      obs_.run_us->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(ran)
              .count()));
    } else {
      task.fn();
    }
  }
}

}  // namespace gpmv

#include "runner/scheduler.h"

#include <algorithm>
#include <exception>

#include "obs/metrics.h"

namespace metaopt::runner {

namespace {

const obs::Counter c_tasks = obs::counter("sched.tasks");
const obs::Counter c_inline_joins = obs::counter("sched.inline_joins");
const obs::Gauge g_threads = obs::gauge("sched.threads");

}  // namespace

struct Scheduler::Group {
  const std::function<void(int)>& body;
  const int width;
  int next = 1;     ///< next unclaimed index
  int running = 0;  ///< indices claimed by workers and not yet finished
};

Scheduler& Scheduler::global() {
  static Scheduler sched;
  return sched;
}

int Scheduler::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

Scheduler::~Scheduler() {
  std::unique_lock<std::mutex> lock(mutex_);
  stop_ = true;
  lock.unlock();
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void Scheduler::ensure_threads(int n) {
  n = std::clamp(n, 1, kMaxWorkers);
  std::lock_guard<std::mutex> lock(mutex_);
  if (std::ssize(workers_) >= n) return;
  while (std::ssize(workers_) < n) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  g_threads.set(static_cast<double>(n));
}

int Scheduler::num_threads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(workers_.size());
}

int Scheduler::claim(Group& group) {
  const int index = group.next++;
  if (group.next == group.width) std::erase(open_, &group);
  return index;
}

void Scheduler::fork_join(int width, const std::function<void(int)>& body) {
  if (width <= 1) {
    body(0);
    return;
  }
  // The caller is one of the `width` runners: width - 1 workers suffice.
  ensure_threads(width - 1);
  Group group{body, width};
  {
    // Opened under mutex_, so no waiting worker can miss the notify.
    std::lock_guard<std::mutex> lock(mutex_);
    open_.push_back(&group);
  }
  work_cv_.notify_all();
  // Workers hold `body` and `group`: all finish first, even on a throw.
  std::exception_ptr error;
  try {
    body(0);
  } catch (...) {
    error = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  while (group.next < width) {
    const int index = claim(group);  // no worker took it: run it here
    lock.unlock();
    c_tasks.inc();
    c_inline_joins.inc();
    body(index);
    lock.lock();
  }
  done_cv_.wait(lock, [&group] { return group.running == 0; });
  if (error) std::rethrow_exception(error);
}

void Scheduler::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !open_.empty(); });
    if (open_.empty()) return;  // stopping
    Group& group = *open_.front();
    const int index = claim(group);
    ++group.running;
    lock.unlock();
    c_tasks.inc();
    group.body(index);
    lock.lock();
    // The caller may destroy `group` once mutex_ is released.
    if (--group.running == 0) done_cv_.notify_all();
  }
}

}  // namespace metaopt::runner

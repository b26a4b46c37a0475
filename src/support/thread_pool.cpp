#include "support/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "support/env.hpp"
#include "support/telemetry.hpp"

namespace glitchmask {

namespace {

thread_local const ThreadPool* tls_pool = nullptr;
thread_local int tls_worker = -1;

}  // namespace

ThreadPool::ThreadPool(unsigned workers) {
    const unsigned n = workers > 0 ? workers : default_worker_count();
    queues_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        queues_.push_back(std::make_unique<WorkerQueue>());
    threads_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard<std::mutex> lock(sleep_mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& thread : threads_) thread.join();
}

unsigned ThreadPool::default_worker_count() {
    const std::int64_t env = env_int("GLITCHMASK_WORKERS", 0);
    if (env > 0) return static_cast<unsigned>(env);
    return std::max(1u, std::thread::hardware_concurrency());
}

int ThreadPool::current_worker() const noexcept {
    return tls_pool == this ? tls_worker : -1;
}

void ThreadPool::submit(Task task) {
    const int own = current_worker();
    std::size_t target;
    if (own >= 0) {
        target = static_cast<std::size_t>(own);
    } else {
        const std::lock_guard<std::mutex> lock(sleep_mutex_);
        target = next_queue_;
        next_queue_ = (next_queue_ + 1) % queues_.size();
    }
    {
        const std::lock_guard<std::mutex> lock(queues_[target]->mutex);
        queues_[target]->tasks.push_back(std::move(task));
    }
    {
        const std::lock_guard<std::mutex> lock(sleep_mutex_);
        ++queued_;
    }
    wake_.notify_one();
}

bool ThreadPool::try_pop_own(unsigned id, Task& out) {
    WorkerQueue& queue = *queues_[id];
    const std::lock_guard<std::mutex> lock(queue.mutex);
    if (queue.tasks.empty()) return false;
    out = std::move(queue.tasks.back());  // LIFO: newest first, cache-warm
    queue.tasks.pop_back();
    return true;
}

bool ThreadPool::try_steal(unsigned id, Task& out) {
    for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
        WorkerQueue& victim = *queues_[(id + offset) % queues_.size()];
        const std::lock_guard<std::mutex> lock(victim.mutex);
        if (victim.tasks.empty()) continue;
        out = std::move(victim.tasks.front());  // FIFO end: oldest first
        victim.tasks.pop_front();
        return true;
    }
    return false;
}

void ThreadPool::worker_loop(unsigned id) {
    tls_pool = this;
    tls_worker = static_cast<int>(id);
    for (;;) {
        Task task;
        bool stolen = false;
        bool got = try_pop_own(id, task);
        if (!got) got = stolen = try_steal(id, task);
        if (got) {
            {
                const std::lock_guard<std::mutex> lock(sleep_mutex_);
                --queued_;
            }
            if (telemetry::enabled()) {
                telemetry::Shard& shard = telemetry::shard();
                shard.add(telemetry::Counter::kPoolTasksExecuted, 1);
                if (stolen)
                    shard.add(telemetry::Counter::kPoolTasksStolen, 1);
            }
            task();
            continue;
        }
        std::unique_lock<std::mutex> lock(sleep_mutex_);
        {
            const telemetry::ScopedInterval idle(
                telemetry::Histogram::kPoolIdleNanos);
            wake_.wait(lock, [this] { return stop_ || queued_ > 0; });
        }
        if (stop_ && queued_ == 0) return;
    }
}

void TaskGroup::run(ThreadPool::Task task) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++pending_;
    }
    pool_.submit([this, task = std::move(task)] {
        const bool skip = cancel_ != nullptr && cancel_->requested();
        std::exception_ptr error;
        if (!skip) {
            try {
                task();
            } catch (...) {
                error = std::current_exception();
            }
        }
        const std::lock_guard<std::mutex> lock(mutex_);
        if (skip) ++skipped_;
        if (error != nullptr && error_ == nullptr) error_ = error;
        if (--pending_ == 0) done_.notify_all();
    });
}

void TaskGroup::wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return pending_ == 0; });
    if (error_ != nullptr) {
        const std::exception_ptr error = std::exchange(error_, nullptr);
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void TaskGroup::wait_no_throw() noexcept {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return pending_ == 0; });
}

}  // namespace glitchmask

// Coroutine synchronization primitives on virtual time.
//
//   Resource — counted resource pool (CPU cores, worker slots) with FIFO
//              waiters and RAII leases.
//   Mailbox  — unbounded producer/consumer channel (task queues).
//   Gate     — broadcast latch (open releases all waiters; reusable).
//
// All wakeups go through the simulator's event queue at the current instant,
// matching the Future discipline: only the event loop resumes coroutines.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "sim/co.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace faaspart::sim {

class Resource;

/// RAII grant of `count` units of a Resource. Move-only; releases on
/// destruction or explicit release(). A lease that outlives its Resource
/// (e.g. when a simulator tears down suspended processes after the Resource
/// is gone) releases into nothing, safely.
class ResourceLease {
 public:
  ResourceLease() = default;
  ResourceLease(std::shared_ptr<Resource*> res, std::int64_t count)
      : res_(std::move(res)), count_(count) {}
  ResourceLease(ResourceLease&& o) noexcept
      : res_(std::exchange(o.res_, nullptr)), count_(std::exchange(o.count_, 0)) {}
  ResourceLease& operator=(ResourceLease&& o) noexcept {
    if (this != &o) {
      release();
      res_ = std::exchange(o.res_, nullptr);
      count_ = std::exchange(o.count_, 0);
    }
    return *this;
  }
  ResourceLease(const ResourceLease&) = delete;
  ResourceLease& operator=(const ResourceLease&) = delete;
  ~ResourceLease() { release(); }

  [[nodiscard]] bool held() const { return res_ != nullptr && *res_ != nullptr; }
  [[nodiscard]] std::int64_t count() const { return count_; }
  void release();

 private:
  std::shared_ptr<Resource*> res_;  // points to null once the Resource died
  std::int64_t count_ = 0;
};

/// Counted resource with strict FIFO admission: a large request at the head
/// of the queue blocks smaller later requests (no starvation).
class Resource {
 public:
  Resource(Simulator& sim, std::int64_t capacity, std::string name = "resource");
  ~Resource();
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  [[nodiscard]] std::int64_t capacity() const { return capacity_; }
  [[nodiscard]] std::int64_t available() const { return available_; }
  [[nodiscard]] std::int64_t in_use() const { return capacity_ - available_; }
  [[nodiscard]] std::size_t queue_length() const { return waiters_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// co_await acquire(n) → ResourceLease.
  [[nodiscard]] Co<ResourceLease> acquire(std::int64_t n = 1);

  /// Non-blocking attempt; empty lease if it would have to wait.
  [[nodiscard]] ResourceLease try_acquire(std::int64_t n = 1);

 private:
  friend class ResourceLease;

  struct Waiter {
    std::int64_t n;
    std::coroutine_handle<> handle;
  };

  struct AcquireAwaiter {
    Resource& res;
    std::int64_t n;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };

  void release_units(std::int64_t n);
  void drain();

  Simulator& sim_;
  std::string name_;
  std::int64_t capacity_;
  std::int64_t available_;
  std::deque<Waiter> waiters_;
  std::shared_ptr<Resource*> self_;  // nulled in the destructor
};

/// Unbounded channel. Multiple producers/consumers; consumers are woken in
/// FIFO order (a concurrently arriving consumer at the same instant may
/// overtake a woken one — acceptable for the symmetric consumers we model).
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Simulator& sim) : sim_(&sim) {}

  void put(T v) {
    FP_CHECK_MSG(!closed_, "put to a closed Mailbox");
    items_.push_back(std::move(v));
    wake_one();
  }

  /// Closes the channel: queued items can still be drained; a get() on an
  /// empty closed mailbox throws util::StateError.
  void close() {
    closed_ = true;
    // Wake everyone so blocked consumers observe the close.
    while (!waiters_.empty()) wake_one();
  }

  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }

  [[nodiscard]] Co<T> get() {
    while (items_.empty()) {
      if (closed_) throw util::StateError("Mailbox closed and drained");
      co_await WaitAwaiter{*this};
    }
    T v = std::move(items_.front());
    items_.pop_front();
    co_return v;
  }

  /// Non-blocking: moves an item out if present.
  [[nodiscard]] bool try_get(T& out) {
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

 private:
  struct WaitAwaiter {
    Mailbox& mb;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { mb.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  void wake_one() {
    if (waiters_.empty()) return;
    const auto h = waiters_.front();
    waiters_.pop_front();
    sim_->schedule_now([h] { h.resume(); });
  }

  Simulator* sim_;
  std::deque<T> items_;
  std::deque<std::coroutine_handle<>> waiters_;
  bool closed_ = false;
};

/// Broadcast latch. wait() passes immediately while open; open() releases
/// every current waiter; close() re-arms it.
class Gate {
 public:
  explicit Gate(Simulator& sim, bool open = false) : sim_(&sim), open_(open) {}

  [[nodiscard]] bool is_open() const { return open_; }
  [[nodiscard]] std::size_t waiting() const { return waiters_.size(); }

  void open() {
    open_ = true;
    for (auto h : waiters_) sim_->schedule_now([h] { h.resume(); });
    waiters_.clear();
  }

  void close() { open_ = false; }

  [[nodiscard]] auto wait() {
    struct Awaiter {
      Gate& gate;
      bool await_ready() const noexcept { return gate.open_; }
      void await_suspend(std::coroutine_handle<> h) { gate.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Simulator* sim_;
  bool open_;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace faaspart::sim

// Virtual-time futures.
//
// Future<T>/Promise<T> connect producers (sharing engines, executors) to
// consumers: the coroutine processes that await them. Completion wakes those
// waiters through the event queue at the *current instant*, never inline —
// the event loop stays the only resumer of coroutines, which rules out
// reentrancy bugs by construction. A producer that must act when its own
// result settles does so where it settles it, not from a callback.
//
// Promise and Future are copyable handles on one state, so a Promise can be
// captured in std::function callbacks and several processes can await one
// result. The state counts its handles intrusively and without atomics: a
// state never leaves the thread of its Simulator, since every runner point
// builds its own.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "sim/co.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace faaspart::sim {

namespace detail {

template <typename T>
struct FutureState {
  Simulator* sim;
  std::uint32_t refs = 0;  ///< live Promise/Future/awaiter handles
  bool done = false;
  std::optional<T> value;
  std::exception_ptr error;
  /// The first awaiting coroutine is held inline, so the common single
  /// awaiter allocates no vector; later ones queue behind it.
  std::coroutine_handle<> first_waiter;
  std::vector<std::coroutine_handle<>> more_waiters;

  explicit FutureState(Simulator& s) : sim(&s) {}

  /// Schedules the waiters in registration order.
  void complete() {
    done = true;
    if (first_waiter) sim->schedule_now([h = first_waiter] { h.resume(); });
    for (auto h : more_waiters) sim->schedule_now([h] { h.resume(); });
    more_waiters.clear();
  }
};

/// Shared ownership of a FutureState through its intrusive, non-atomic
/// count; the last handle deletes the state.
template <typename S>
class StateRef {
 public:
  StateRef() = default;
  explicit StateRef(S* s) : s_(s) { ++s_->refs; }
  StateRef(const StateRef& o) : s_(o.s_) {
    if (s_ != nullptr) ++s_->refs;
  }
  StateRef(StateRef&& o) noexcept : s_(std::exchange(o.s_, nullptr)) {}
  StateRef& operator=(StateRef o) noexcept {
    std::swap(s_, o.s_);
    return *this;
  }
  ~StateRef() {
    if (s_ != nullptr && --s_->refs == 0) delete s_;
  }

  S* operator->() const { return s_; }
  bool operator==(std::nullptr_t) const { return s_ == nullptr; }

 private:
  S* s_ = nullptr;
};

// void uses the same shape with a unit payload.
struct Unit {};

}  // namespace detail

template <typename T>
class Future;

template <typename T = void>
class Promise {
  using Payload = std::conditional_t<std::is_void_v<T>, detail::Unit, T>;

 public:
  /// An empty Promise; using it before assignment from a real one is an
  /// FP_CHECK failure. Exists so structs holding a Promise stay
  /// default-constructible.
  Promise() = default;

  explicit Promise(Simulator& sim)
      : st_(new detail::FutureState<Payload>(sim)) {}

  [[nodiscard]] bool valid() const { return st_ != nullptr; }

  [[nodiscard]] Future<T> future() const;

  template <typename U = T>
    requires(!std::is_void_v<U>)
  void set_value(U v) const {
    FP_CHECK_MSG(valid(), "empty promise");
    FP_CHECK_MSG(!st_->done, "promise completed twice");
    st_->value.emplace(std::move(v));
    st_->complete();
  }

  template <typename U = T>
    requires std::is_void_v<U>
  void set_value() const {
    FP_CHECK_MSG(valid(), "empty promise");
    FP_CHECK_MSG(!st_->done, "promise completed twice");
    st_->value.emplace();
    st_->complete();
  }

  void set_exception(std::exception_ptr e) const {
    FP_CHECK_MSG(valid(), "empty promise");
    FP_CHECK_MSG(!st_->done, "promise completed twice");
    FP_CHECK(e != nullptr);
    st_->error = e;
    st_->complete();
  }

 private:
  friend class Future<T>;
  detail::StateRef<detail::FutureState<Payload>> st_;
};

template <typename T = void>
class Future {
  using Payload = std::conditional_t<std::is_void_v<T>, detail::Unit, T>;

 public:
  Future() = default;
  explicit Future(detail::StateRef<detail::FutureState<Payload>> st) : st_(std::move(st)) {}

  [[nodiscard]] bool valid() const { return st_ != nullptr; }
  [[nodiscard]] bool ready() const { return st_ != nullptr && st_->done; }
  [[nodiscard]] bool failed() const { return ready() && st_->error != nullptr; }

  /// The completed value; requires ready() and !failed().
  template <typename U = T>
    requires(!std::is_void_v<U>)
  [[nodiscard]] const U& value() const {
    FP_CHECK_MSG(ready(), "Future::value before completion");
    if (st_->error) std::rethrow_exception(st_->error);
    return *st_->value;
  }

  [[nodiscard]] std::exception_ptr error() const {
    FP_CHECK(ready());
    return st_->error;
  }

  auto operator co_await() const {
    struct Awaiter {
      detail::StateRef<detail::FutureState<Payload>> st;
      bool await_ready() const noexcept { return st->done; }
      void await_suspend(std::coroutine_handle<> h) const {
        if (!st->first_waiter) {
          st->first_waiter = h;
        } else {
          st->more_waiters.push_back(h);
        }
      }
      T await_resume() const {
        if (st->error) std::rethrow_exception(st->error);
        if constexpr (!std::is_void_v<T>) return *st->value;
      }
    };
    FP_CHECK_MSG(valid(), "awaiting an empty Future");
    return Awaiter{st_};
  }

 private:
  detail::StateRef<detail::FutureState<Payload>> st_;
};

template <typename T>
Future<T> Promise<T>::future() const {
  FP_CHECK_MSG(valid(), "empty promise");
  return Future<T>(st_);
}

/// Awaits every future in turn; completes when all have completed. If any
/// failed, rethrows the first failure encountered (after all are done).
template <typename T>
Co<void> when_all(std::vector<Future<T>> futures) {
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      co_await f;
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace faaspart::sim

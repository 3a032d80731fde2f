// Microbenchmarks of the simulation substrate (google-benchmark): event
// throughput, coroutine scheduling, heap churn under cancel-heavy
// replanning, and the MPS engine's replanning cost — the knobs that bound
// how large an experiment the library can simulate.
#include <benchmark/benchmark.h>

#include <vector>

#include "gpu/device.hpp"
#include "sched/engines.hpp"
#include "sim/future.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "util/rng.hpp"

using namespace faaspart;
using namespace util::literals;

namespace {

void BM_ScheduleAndRunEvents(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    util::Rng rng(1);
    for (int i = 0; i < n; ++i) {
      sim.schedule_in(util::nanoseconds(rng.uniform_int(0, 1'000'000)), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.processed_events());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScheduleAndRunEvents)->Arg(1000)->Arg(100000);

sim::Co<void> ping(sim::Simulator& sim, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim.delay(1_ns);
}

void BM_CoroutineDelayHops(benchmark::State& state) {
  const auto hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim.spawn(ping(sim, hops));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_CoroutineDelayHops)->Arg(1000)->Arg(10000);

void BM_MailboxProducerConsumer(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Mailbox<int> mb(sim);
    sim.spawn([](sim::Mailbox<int>& m, int count) -> sim::Co<void> {
      for (int i = 0; i < count; ++i) (void)co_await m.get();
    }(mb, n));
    sim.spawn([](sim::Simulator& s, sim::Mailbox<int>& m, int count) -> sim::Co<void> {
      for (int i = 0; i < count; ++i) {
        m.put(i);
        co_await s.delay(1_ns);
      }
    }(sim, mb, n));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MailboxProducerConsumer)->Arg(10000);

// -- Cancel-heavy churn: the sched-engine replanning shape -------------------
//
// A window of pending timers where every round cancels one and schedules a
// replacement (what the MPS/timeshare engines do on every kernel arrival or
// completion), with one event actually firing every few rounds. The indexed
// heap erases a cancelled event in place, leaving no tombstone behind.

void cancel_heavy_churn(sim::Simulator& sim, util::Rng& rng, int rounds) {
  constexpr int kWindow = 1024;
  std::vector<sim::Simulator::EventId> window;
  window.reserve(kWindow);
  for (int i = 0; i < kWindow; ++i) {
    window.push_back(
        sim.schedule_in(util::nanoseconds(rng.uniform_int(1, 1'000'000)), [] {}));
  }
  for (int r = 0; r < rounds; ++r) {
    const auto slot = static_cast<std::size_t>(rng.uniform_int(0, kWindow - 1));
    sim.cancel(window[slot]);
    window[slot] =
        sim.schedule_in(util::nanoseconds(rng.uniform_int(1, 1'000'000)), [] {});
    if (r % 4 == 0) (void)sim.step();
  }
  sim.run();
}

void BM_CancelHeavyChurn(benchmark::State& state) {
  const auto rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    util::Rng rng(7);
    cancel_heavy_churn(sim, rng, rounds);
    benchmark::DoNotOptimize(sim.processed_events());
  }
  state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_CancelHeavyChurn)->Arg(100000);

// -- Heap churn without cancels: pure push/pop throughput --------------------
//
// Steady-state heap churn: a rolling horizon where every fired event
// schedules its successor — the discrete-event analogue of a busy device
// queue. Exercises push+pop at a fixed heap size with no cancels at all.
void rolling_horizon(sim::Simulator& sim, util::Rng& rng, int width, int events) {
  struct Hopper {
    sim::Simulator* sim;
    util::Rng* rng;
    int remaining;
    void hop() {
      if (remaining-- <= 0) return;
      sim->schedule_in(util::nanoseconds(rng->uniform_int(1, 10'000)),
                       [this] { hop(); });
    }
  };
  std::vector<Hopper> hoppers(static_cast<std::size_t>(width));
  for (auto& h : hoppers) {
    h = Hopper{&sim, &rng, events / width};
    h.hop();
  }
  sim.run();
}

void BM_HeapChurnRollingHorizon(benchmark::State& state) {
  const auto events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    util::Rng rng(3);
    rolling_horizon(sim, rng, /*width=*/512, events);
    benchmark::DoNotOptimize(sim.processed_events());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_HeapChurnRollingHorizon)->Arg(100000);

void BM_MpsEngineConcurrentKernels(benchmark::State& state) {
  const auto clients = static_cast<int>(state.range(0));
  const int kernels_per_client = 50;
  for (auto _ : state) {
    sim::Simulator sim;
    gpu::Device dev(sim, gpu::arch::a100_80gb(), 0, sched::mps_factory());
    std::vector<gpu::ContextId> ctxs;
    for (int c = 0; c < clients; ++c) {
      ctxs.push_back(dev.create_context(
          "c" + std::to_string(c),
          {.active_thread_percentage = 100.0 / clients}));
    }
    gpu::KernelDesc k{"k", gpu::KernelKind::kGemv, 1e9, 256 * util::MB, 20, 0.3};
    for (int i = 0; i < kernels_per_client; ++i) {
      for (const auto ctx : ctxs) (void)dev.launch(ctx, k);
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * clients * kernels_per_client);
}
BENCHMARK(BM_MpsEngineConcurrentKernels)->Arg(2)->Arg(8);

}  // namespace

BENCHMARK_MAIN();

// ServingEngine unit tests (DESIGN.md §14): the continuous-batching loop's
// observable contract — completion accounting, batch caps, watermark
// deferral, LIFO preemption under KV pressure, livelock-proof sheds, the
// disaggregated adoption path, and stop/shutdown.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gpu/device.hpp"
#include "sched/engines.hpp"
#include "serve/engine.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"
#include "workloads/llama.hpp"

namespace faaspart::serve {
namespace {

using namespace util::literals;

struct EngineFixture : ::testing::Test {
  sim::Simulator sim;
  gpu::Device dev{sim, gpu::arch::a100_80gb(), 0, sched::mps_factory()};

  LlmRequest request(int prompt, int max_new) {
    LlmRequest r;
    r.prompt_tokens = prompt;
    r.max_new_tokens = max_new;
    return r;
  }
};

TEST_F(EngineFixture, SingleRequestCompletesWithSaneTimings) {
  EngineConfig cfg;
  cfg.keep_log = true;
  ServingEngine engine(sim, dev, cfg);
  engine.start();
  auto f = engine.submit(request(128, 16));
  sim.run();

  ASSERT_TRUE(f.ready());
  const RequestOutcome o = f.value();
  EXPECT_EQ(o.kind, OutcomeKind::kCompleted);
  EXPECT_EQ(o.tokens_out, 16);
  EXPECT_GT(o.ttft.ns, 0);           // prefill + first decode step
  EXPECT_GE(o.latency.ns, o.ttft.ns);
  EXPECT_EQ(engine.stats().completions, 1u);
  EXPECT_EQ(engine.stats().prefill_tokens, 128u);
  EXPECT_EQ(engine.stats().decode_tokens, 16u);
  EXPECT_EQ(engine.pager().live_sequences(), 0u);

  bool admitted = false;
  bool prefilled = false;
  bool decoded = false;
  bool completed = false;
  for (const EngineEvent& ev : engine.log()) {
    admitted |= ev.kind == EngineEventKind::kAdmit;
    prefilled |= ev.kind == EngineEventKind::kPrefill;
    decoded |= ev.kind == EngineEventKind::kDecode;
    completed |= ev.kind == EngineEventKind::kComplete;
  }
  EXPECT_TRUE(admitted && prefilled && decoded && completed);
}

TEST_F(EngineFixture, BatchCapBoundsConcurrencyNotThroughput) {
  EngineConfig cfg;
  cfg.max_batch = 4;
  ServingEngine engine(sim, dev, cfg);
  engine.start();
  std::vector<sim::Future<RequestOutcome>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(engine.submit(request(32, 8)));
  sim.run();

  for (const auto& f : futures) {
    ASSERT_TRUE(f.ready());
    EXPECT_EQ(f.value().kind, OutcomeKind::kCompleted);
  }
  EXPECT_EQ(engine.stats().peak_batch, 4);
  EXPECT_EQ(engine.stats().completions, 8u);
}

TEST_F(EngineFixture, KvPressurePreemptsLifoAndEveryoneFinishes) {
  EngineConfig cfg;
  // 12 pages of 16 tokens: two 104-token contexts (7 pages each) cannot
  // coexist to completion, so decode growth must evict the newest sequence.
  cfg.kv_reserve =
      12 * 16 * workloads::llama_kv_bytes_per_token(cfg.spec, cfg.run);
  ServingEngine engine(sim, dev, cfg);
  engine.start();
  std::vector<sim::Future<RequestOutcome>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(engine.submit(request(64, 40)));
  sim.run();

  int completed = 0;
  int evicted_out = 0;
  for (const auto& f : futures) {
    ASSERT_TRUE(f.ready());
    const RequestOutcome o = f.value();
    if (o.kind == OutcomeKind::kCompleted) ++completed;
    evicted_out += o.preemptions;
  }
  EXPECT_EQ(completed, 3);  // recompute-on-resume loses no one here
  EXPECT_GE(engine.stats().preemptions, 1u);
  EXPECT_GE(evicted_out, 1);
  EXPECT_EQ(engine.pager().live_sequences(), 0u);
  EXPECT_EQ(engine.pager().free_pages(), engine.pager().total_pages());
}

TEST_F(EngineFixture, OversizedContextIsShedNotLivelocked) {
  EngineConfig cfg;
  cfg.token_budget = 256;
  ServingEngine engine(sim, dev, cfg);
  engine.start();
  auto big = engine.submit(request(2000, 8));  // can never fit the budget
  auto ok = engine.submit(request(64, 8));     // must not starve behind it
  sim.run();

  ASSERT_TRUE(big.ready());
  EXPECT_EQ(big.value().kind, OutcomeKind::kShed);
  EXPECT_EQ(big.value().reason, kReasonKvCapacity);
  ASSERT_TRUE(ok.ready());
  EXPECT_EQ(ok.value().kind, OutcomeKind::kCompleted);
}

TEST_F(EngineFixture, AdoptsExternallyPrefilledContexts) {
  EngineConfig cfg;
  cfg.inline_prefill = false;
  std::vector<ServedRequestPtr> requeued;
  cfg.external_requeue = [&requeued](ServedRequestPtr r) {
    requeued.push_back(std::move(r));
  };
  ServingEngine engine(sim, dev, cfg);
  engine.start();

  auto r = std::make_unique<ServedRequest>();
  r->req = request(64, 8);
  r->req.id = 7;
  r->submitted = sim.now();
  r->done = sim::Promise<RequestOutcome>(sim);
  auto f = r->done.future();
  ASSERT_TRUE(engine.can_adopt(r->context_tokens()));
  ASSERT_TRUE(engine.adopt_prefilled(r));
  EXPECT_EQ(r, nullptr);  // ownership moved into the engine
  sim.run();

  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.value().kind, OutcomeKind::kCompleted);
  EXPECT_EQ(f.value().tokens_out, 8);
  EXPECT_EQ(engine.stats().adopted, 1u);
  EXPECT_EQ(engine.stats().prefill_tokens, 0u);  // decode-only pool
  EXPECT_TRUE(requeued.empty());
}

TEST_F(EngineFixture, StopDrainsInFlightAndShedsNewArrivals) {
  ServingEngine engine(sim, dev, {});
  engine.start();
  auto before = engine.submit(request(64, 8));
  engine.request_stop();
  auto after = engine.submit(request(64, 8));
  sim.run();

  ASSERT_TRUE(before.ready());
  EXPECT_EQ(before.value().kind, OutcomeKind::kCompleted);
  ASSERT_TRUE(after.ready());
  EXPECT_EQ(after.value().kind, OutcomeKind::kShed);
  EXPECT_EQ(after.value().reason, kReasonQueueFull);
  engine.shutdown();  // loop exited, no work: context teardown is legal now
}

TEST_F(EngineFixture, WatermarkDefersAdmissionUntilPagesFree) {
  EngineConfig cfg;
  // 12 pages, watermark 10: two 5-page contexts fill the admission budget;
  // the third waits for a release rather than being shed.
  cfg.kv_reserve =
      12 * 16 * workloads::llama_kv_bytes_per_token(cfg.spec, cfg.run);
  cfg.max_batch = 16;
  ServingEngine engine(sim, dev, cfg);
  engine.start();
  std::vector<sim::Future<RequestOutcome>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(engine.submit(request(70, 4)));
  sim.run();

  for (const auto& f : futures) {
    ASSERT_TRUE(f.ready());
    EXPECT_EQ(f.value().kind, OutcomeKind::kCompleted);
  }
  // The batch never held all three at once: the pager's peak stayed at two
  // admitted contexts' worth of pages (2 x 5), inside the 10-page watermark.
  EXPECT_EQ(engine.pager().stats().peak_pages_in_use, 10);
  EXPECT_EQ(engine.stats().completions, 3u);
}

}  // namespace
}  // namespace faaspart::serve

// LLM serving sweep: run-to-completion MPS co-location vs continuous
// batching, prefill/decode disaggregation, and planner-balanced pools
// (DESIGN.md §14). Every mode replays the same pre-generated Poisson
// arrival sequence at 0.5/1/2× the run-to-completion baseline's saturation
// rate, then drains; goodput counts completions whose TTFT met the SLO.
#include "runner/experiments.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <sstream>
#include <utility>

#include "gpu/device.hpp"
#include "obs/telemetry.hpp"
#include "scenario/trace.hpp"
#include "sched/engines.hpp"
#include "serve/balance.hpp"
#include "serve/disagg.hpp"
#include "serve/engine.hpp"
#include "sim/simulator.hpp"
#include "trace/stats.hpp"
#include "trace/table.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads/llama.hpp"

namespace faaspart::runner {

namespace {

struct Arrival {
  util::Duration at{};
  int prompt = 0;
  int output = 0;
};

// Paragraph-chat mix (§5.2 flavour): mean prompt ≈ 173, mean output ≈ 91.
constexpr int kPrompts[] = {64, 128, 256, 512};
constexpr double kPromptW[] = {0.3, 0.4, 0.2, 0.1};
constexpr int kOutputs[] = {32, 64, 128, 256};
constexpr double kOutputW[] = {0.25, 0.4, 0.25, 0.1};
constexpr double kMeanPrompt = 172.8;
constexpr double kMeanOutput = 91.2;

int pick_weighted(util::Rng& rng, const int (&values)[4],
                  const double (&weights)[4]) {
  const double u = rng.uniform(0.0, 1.0);
  double acc = 0;
  for (int i = 0; i < 4; ++i) {
    acc += weights[i];
    if (u < acc) return values[i];
  }
  return values[3];
}

std::vector<Arrival> make_arrivals(const LlmServingOptions& o,
                                   double rate_mult) {
  // Same seed ⇒ same arrival sequence for every mode at this rate.
  util::Rng rng(o.seed ^ 0x11a5e471ULL);
  const double rate = o.saturation_hz * rate_mult;
  std::vector<Arrival> out;
  util::Duration t{};
  for (;;) {
    t += util::from_seconds(rng.exponential(1.0 / rate));
    if (t > o.window) break;
    Arrival a;
    a.at = t;
    a.prompt = pick_weighted(rng, kPrompts, kPromptW);
    a.output = pick_weighted(rng, kOutputs, kOutputW);
    out.push_back(a);
  }
  return out;
}

/// Replays `arrivals` against `submit_one` at their due times.
sim::Co<void> drive_arrivals(sim::Simulator& sim,
                             const std::vector<Arrival>& arrivals,
                             const std::function<void(const Arrival&)>& submit_one) {
  const util::TimePoint t0 = sim.now();
  for (const Arrival& a : arrivals) {
    const util::TimePoint due = t0 + a.at;
    if (due > sim.now()) co_await sim.delay(due - sim.now());
    submit_one(a);
  }
}

/// The run-to-completion baseline: N MPS-co-located workers, each owning a
/// resident fp16 7B instance (four fill the A100-80GB — the §5.2 layout),
/// FIFO over a shared queue, one completion at a time per worker: prefill,
/// then one decode kernel + host gap per output token.
class RtcServer {
 public:
  RtcServer(sim::Simulator& sim, gpu::Device& dev,
            workloads::LlamaSpec spec, workloads::LlamaRunConfig run,
            int workers)
      : sim_(sim), dev_(dev), spec_(std::move(spec)), run_(run),
        queue_gate_(sim, false) {
    const util::Bytes footprint =
        workloads::llama_memory_footprint(spec_, run_);
    for (int i = 0; i < workers; ++i) {
      const gpu::ContextId ctx =
          dev_.create_context(util::strf("rtc", i), gpu::ContextOptions{});
      dev_.alloc(ctx, footprint, "weights");
      contexts_.push_back(ctx);
    }
    for (std::size_t i = 0; i < contexts_.size(); ++i) {
      sim_.spawn(worker(i), util::strf("rtc-worker", i));
    }
  }

  sim::Future<serve::RequestOutcome> submit(serve::LlmRequest req) {
    serve::ServedRequestPtr r = serve::make_served_request(sim_, req, next_id_);
    sim::Future<serve::RequestOutcome> fut = r->done.future();
    queue_.push_back(std::move(r));
    queue_gate_.open();
    return fut;
  }

 private:
  sim::Co<void> worker(std::size_t index) {
    for (;;) {
      if (queue_.empty()) {
        queue_gate_.close();
        co_await queue_gate_.wait();
        continue;
      }
      serve::ServedRequestPtr r = std::move(queue_.front());
      queue_.pop_front();
      co_await run_one(contexts_[index], std::move(r));
    }
  }

  sim::Co<void> run_one(gpu::ContextId ctx, serve::ServedRequestPtr r) {
    gpu::KernelDesc prefill =
        workloads::llama_prefill_kernel(spec_, run_, r->req.prompt_tokens);
    co_await dev_.launch(ctx, prefill);
    for (int t = 0; t < r->req.max_new_tokens; ++t) {
      gpu::KernelDesc decode = workloads::llama_decode_kernel_at(
          spec_, run_, r->req.prompt_tokens + t);
      co_await dev_.launch(ctx, decode);
      r->generated += 1;
      if (!r->first_token) {
        r->first_token = true;
        r->first_token_at = sim_.now();
      }
      co_await sim_.delay(run_.host_gap_per_token);
    }
    settle_completed(sim_, *r);
  }

  sim::Simulator& sim_;
  gpu::Device& dev_;
  workloads::LlamaSpec spec_;
  workloads::LlamaRunConfig run_;
  std::vector<gpu::ContextId> contexts_;
  std::deque<serve::ServedRequestPtr> queue_;
  sim::Gate queue_gate_;
  serve::RequestId next_id_ = 1;
};

}  // namespace

std::vector<std::string> llm_serving_modes() {
  return {"rtc", "continuous", "disagg", "disagg-balance"};
}

std::vector<LlmServingPoint> llm_serving_points(const LlmServingOptions& opts) {
  std::vector<LlmServingPoint> points;
  for (const std::string& mode : llm_serving_modes()) {
    for (const double mult : {0.5, 1.0, 2.0}) {
      LlmServingPoint p;
      p.mode = mode;
      p.rate_mult = mult;
      p.opts = opts;
      p.opts.rate_mult = mult;
      points.push_back(std::move(p));
    }
  }
  return points;
}

LlmServingResult run_llm_serving_point(const LlmServingPoint& point) {
  const LlmServingOptions& o = point.opts;
  sim::Simulator sim;
  std::unique_ptr<obs::Telemetry> tel;
  if (o.observability) tel = std::make_unique<obs::Telemetry>(sim);
  gpu::Device dev(sim, gpu::arch::a100_80gb(), 0, sched::mps_factory());

  const workloads::LlamaSpec spec = workloads::llama2_7b();
  const workloads::LlamaRunConfig run = workloads::serving_config();
  const std::vector<Arrival> arrivals = make_arrivals(o, point.rate_mult);

  std::vector<sim::Future<serve::RequestOutcome>> futures;
  futures.reserve(arrivals.size());

  std::unique_ptr<RtcServer> rtc;
  std::unique_ptr<serve::ServingEngine> engine;
  std::unique_ptr<serve::DisaggLlmServer> disagg;
  std::unique_ptr<serve::PoolBalancer> balancer;

  std::function<void(const Arrival&)> submit_one;
  if (point.mode == "rtc") {
    rtc = std::make_unique<RtcServer>(sim, dev, spec, run, o.rtc_workers);
    submit_one = [&](const Arrival& a) {
      futures.push_back(rtc->submit(serve::LlmRequest{0, a.prompt, a.output}));
    };
  } else if (point.mode == "continuous") {
    serve::EngineConfig ecfg;
    ecfg.spec = spec;
    ecfg.run = run;
    engine = std::make_unique<serve::ServingEngine>(sim, dev, ecfg);
    engine->start();
    submit_one = [&](const Arrival& a) {
      futures.push_back(
          engine->submit(serve::LlmRequest{0, a.prompt, a.output}));
    };
  } else {
    serve::DisaggConfig dcfg;
    dcfg.spec = spec;
    dcfg.run = run;
    if (point.mode == "disagg-balance") {
      // Deliberately broken start: a 2g.20gb decode pool holds the weights
      // with ~25 MB to spare — not one context's KV — so every adoption is
      // refused and requests shed until the balancer re-partitions. The
      // planner sees decode demand unsatisfiable on 2g (no viable score)
      // and must flip the pools to fix it.
      dcfg.prefill = serve::PoolSpec{"4g.40gb", 1};
      dcfg.decode = serve::PoolSpec{"2g.20gb", 1};
    } else {
      dcfg.prefill = serve::PoolSpec{"3g.40gb", 1};
      dcfg.decode = serve::PoolSpec{"4g.40gb", 1};
    }
    disagg = std::make_unique<serve::DisaggLlmServer>(sim, dev, dcfg);
    if (point.mode == "disagg-balance") {
      serve::PoolBalancer::Options bopts;
      bopts.interval = util::seconds(60);
      bopts.horizon = o.window;
      bopts.mean_prompt = kMeanPrompt;
      bopts.mean_output = kMeanOutput;
      balancer = std::make_unique<serve::PoolBalancer>(*disagg, bopts);
      balancer->start();
    }
    submit_one = [&](const Arrival& a) {
      futures.push_back(
          disagg->submit(serve::LlmRequest{0, a.prompt, a.output}));
    };
  }

  sim.spawn(drive_arrivals(sim, arrivals, submit_one), "arrivals");
  sim.run();

  LlmServingResult r;
  r.point = point;
  r.offered = futures.size();
  const double window_s = o.window.seconds();
  std::vector<double> ttfts, tpots_ms, latencies;
  std::size_t good = 0;
  std::uint64_t tokens_out = 0;
  std::ostringstream hashed;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::RequestOutcome& out = futures[i].value();
    hashed << i << '|' << serve::outcome_kind_name(out.kind) << '|'
           << out.reason << '|' << out.ttft.ns << '|' << out.latency.ns << '|'
           << out.tokens_out << '\n';
    r.preemptions += static_cast<std::size_t>(out.preemptions);
    r.handoffs += static_cast<std::size_t>(out.handoffs);
    switch (out.kind) {
      case serve::OutcomeKind::kCompleted: {
        ++r.completed;
        tokens_out += static_cast<std::uint64_t>(out.tokens_out);
        ttfts.push_back(out.ttft.seconds());
        latencies.push_back(out.latency.seconds());
        if (out.ttft <= o.ttft_slo) ++good;
        if (out.tokens_out > 1) {
          tpots_ms.push_back(1e3 * (out.latency - out.ttft).seconds() /
                             (out.tokens_out - 1));
        }
        break;
      }
      case serve::OutcomeKind::kShed: ++r.shed; break;
      case serve::OutcomeKind::kFailed: ++r.failed; break;
    }
  }
  r.goodput_hz = static_cast<double>(good) / window_s;
  r.throughput_hz = static_cast<double>(r.completed) / window_s;
  r.tokens_per_s = static_cast<double>(tokens_out) / window_s;
  const trace::Summary st = trace::summarize(std::move(ttfts));
  r.ttft_p50_s = st.p50;
  r.ttft_p99_s = st.p99;
  const trace::Summary sp = trace::summarize(std::move(tpots_ms));
  r.tpot_p50_ms = sp.p50;
  r.tpot_p99_ms = sp.p99;
  r.latency_p99_s = trace::summarize(std::move(latencies)).p99;
  if (engine) {
    r.peak_kv_pages = engine->pager().stats().peak_pages_in_use;
  }
  if (disagg) {
    r.relayouts = disagg->stats().relayouts;
    for (const auto& e : disagg->decode_engines()) {
      r.peak_kv_pages =
          std::max(r.peak_kv_pages, e->pager().stats().peak_pages_in_use);
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(scenario::fnv1a(hashed.str())));
  r.digest = buf;
  return r;
}

std::string render_llm_serving(const std::vector<LlmServingResult>& results) {
  std::ostringstream os;
  trace::print_banner(
      os, "LLM serving: continuous batching + disaggregation vs RTC");
  if (!results.empty()) {
    const LlmServingOptions& o = results.front().point.opts;
    os << "workload: fp16 llama2-7b paragraph chat (mean prompt "
       << util::fixed(kMeanPrompt, 0) << ", mean output "
       << util::fixed(kMeanOutput, 0) << " tokens), Poisson "
       << util::fixed(o.saturation_hz, 2) << " req/s at 1x over "
       << util::fixed(o.window.seconds(), 0) << " s, TTFT SLO "
       << util::fixed(o.ttft_slo.seconds(), 0) << " s, seed " << o.seed
       << "\n\n";
  }
  trace::Table table({"mode", "rate", "offered", "done", "shed", "goodput/s",
                      "tok/s", "ttft p50", "ttft p99", "tpot p99 ms",
                      "preempt", "handoff", "relayout", "digest"});
  for (const auto& r : results) {
    table.add_row({r.point.mode, util::fixed(r.point.rate_mult, 1) + "x",
                   std::to_string(r.offered), std::to_string(r.completed),
                   std::to_string(r.shed), util::fixed(r.goodput_hz, 3),
                   util::fixed(r.tokens_per_s, 1),
                   util::fixed(r.ttft_p50_s, 2), util::fixed(r.ttft_p99_s, 2),
                   util::fixed(r.tpot_p99_ms, 0),
                   std::to_string(r.preemptions), std::to_string(r.handoffs),
                   std::to_string(r.relayouts), r.digest});
  }
  table.print(os);
  os << "\nHow to read this: all modes replay the same arrival sequence."
        " rtc is the paper's Sec 5.2 co-location — four MPS workers each"
        " decoding one request at a time, streaming every weight per token."
        " continuous fuses the whole batch into one decode step per"
        " iteration over a paged KV cache; disagg moves prefill to its own"
        " MIG pool so prompts stop stalling decode iterations (KV pages"
        " hand off over the host link); disagg-balance starts with a decode"
        " pool too small to hold even one context's KV and lets the"
        " partition planner repartition it (relayout column) — the early"
        " sheds are the window before the first plan lands. Goodput counts"
        " completions whose first token"
        " met the SLO, over the arrival window.\n";
  return os.str();
}

}  // namespace faaspart::runner

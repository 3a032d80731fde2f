#include "core/partition_planner.hpp"

#include <algorithm>
#include <map>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::core {

namespace {

/// Profile-name equivalence under mig_profile's lookup rule: "3g" names
/// "3g.40gb" and vice versa.
bool profile_matches(const std::string& a, const std::string& b) {
  return a == b || util::starts_with(a, b + ".") || util::starts_with(b, a + ".");
}

/// One feasible profile for one function, ordered smallest-first. The greedy
/// packer walks rungs upward only while each step buys throughput.
struct Rung {
  gpu::MigProfile profile;
  double throughput = 0;
  double latency = 0;
};

/// Latency tolerance of the right-sizing rule in build_ladder.
constexpr double kEpsilon = 0.05;

/// MISO-style right-sizing: candidate profiles that fit the function's
/// memory, sorted ascending by compute slices, truncated above the smallest
/// profile whose latency is within (1 + kEpsilon)× of the best probed
/// latency (MISO's "right-size, don't max-size": bigger buys nothing the SLO
/// can see), then pruned to a strictly throughput-increasing ladder so every
/// upgrade step has positive gain.
std::vector<Rung> build_ladder(const gpu::GpuArchSpec& arch,
                               const FunctionDemand& d) {
  std::vector<Rung> cands;
  for (const auto& s : d.scores) {
    if (s.throughput_hz <= 0) continue;
    const gpu::MigProfile p = gpu::mig_profile(arch, s.profile);
    if (p.memory(arch) < d.memory) continue;
    Rung r{p, s.throughput_hz,
           s.latency_s > 0 ? s.latency_s : 1.0 / s.throughput_hz};
    bool merged = false;
    for (auto& e : cands) {
      if (e.profile.name == p.name) {
        if (r.throughput > e.throughput) e = r;
        merged = true;
      }
    }
    if (!merged) cands.push_back(std::move(r));
  }
  if (cands.empty()) return {};
  std::sort(cands.begin(), cands.end(), [](const Rung& a, const Rung& b) {
    if (a.profile.compute_slices != b.profile.compute_slices) {
      return a.profile.compute_slices < b.profile.compute_slices;
    }
    if (a.profile.mem_slices != b.profile.mem_slices) {
      return a.profile.mem_slices < b.profile.mem_slices;
    }
    return a.profile.name < b.profile.name;
  });
  double best_latency = cands.front().latency;
  for (const auto& c : cands) best_latency = std::min(best_latency, c.latency);
  std::size_t preferred = cands.size() - 1;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (cands[i].latency <= (1.0 + kEpsilon) * best_latency) {
      preferred = i;
      break;
    }
  }
  cands.resize(preferred + 1);
  std::vector<Rung> ladder;
  for (auto& c : cands) {
    if (ladder.empty() || c.throughput > ladder.back().throughput + 1e-12) {
      ladder.push_back(std::move(c));
    }
  }
  return ladder;
}

/// Canonical per-device ordering: biggest instance first (packs without
/// fragmentation when totals fit), function name as the stable tie-break.
struct Item {
  std::string function;
  gpu::MigProfile profile;
};

void sort_canonical(std::vector<Item>& items) {
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.profile.compute_slices != b.profile.compute_slices) {
      return a.profile.compute_slices > b.profile.compute_slices;
    }
    if (a.function != b.function) return a.function < b.function;
    return a.profile.name < b.profile.name;
  });
}

GpuLayout layout_from_items(const gpu::GpuArchSpec& arch,
                            std::vector<Item> items) {
  sort_canonical(items);
  GpuLayout layout;
  int compute_at = 0;
  int mem_at = 0;
  for (const auto& it : items) {
    Placement p;
    p.function = it.function;
    p.profile = it.profile.name;
    p.compute_start = compute_at;
    p.compute_slices = it.profile.compute_slices;
    p.mem_start = mem_at;
    p.mem_slices = it.profile.mem_slices;
    compute_at += p.compute_slices;
    mem_at += p.mem_slices;
    layout.placements.push_back(std::move(p));
  }
  if (compute_at > arch.mig_slices || mem_at > arch.mem_slices) {
    throw util::ConfigError(util::strf(
        "layout needs ", compute_at, "/", arch.mig_slices, " compute and ",
        mem_at, "/", arch.mem_slices, " memory slices on ", arch.name));
  }
  return layout;
}

/// (function, profile) multiset of one device — layout identity for churn
/// accounting, deliberately ignoring slice offsets.
std::vector<std::pair<std::string, std::string>> layout_key(const GpuLayout& g) {
  std::vector<std::pair<std::string, std::string>> key;
  key.reserve(g.placements.size());
  for (const auto& p : g.placements) key.emplace_back(p.function, p.profile);
  std::sort(key.begin(), key.end());
  return key;
}

}  // namespace

double planner_objective(const std::vector<FunctionDemand>& demands,
                         const FleetPlan& plan) {
  double total = 0;
  for (const auto& d : demands) {
    double capacity = 0;
    for (const auto& g : plan.gpus) {
      for (const auto& pl : g.placements) {
        if (pl.function != d.name) continue;
        double best = 0;
        for (const auto& s : d.scores) {
          if (profile_matches(s.profile, pl.profile)) {
            best = std::max(best, s.throughput_hz);
          }
        }
        capacity += best;
      }
    }
    total += std::min(d.rate_hz, capacity);
  }
  return total;
}

std::string validate_fleet_plan(const gpu::GpuArchSpec& arch,
                                const FleetPlan& plan) {
  for (std::size_t gi = 0; gi < plan.gpus.size(); ++gi) {
    std::vector<bool> compute_used(static_cast<std::size_t>(arch.mig_slices));
    std::vector<bool> mem_used(static_cast<std::size_t>(arch.mem_slices));
    for (const auto& p : plan.gpus[gi].placements) {
      gpu::MigProfile prof;
      try {
        prof = gpu::mig_profile(arch, p.profile);
      } catch (const util::NotFoundError& e) {
        return util::strf("gpu ", gi, ": ", e.what());
      }
      if (p.compute_slices != prof.compute_slices ||
          p.mem_slices != prof.mem_slices) {
        return util::strf("gpu ", gi, ": placement of ", p.function, " on ",
                          p.profile, " claims ", p.compute_slices, "c/",
                          p.mem_slices, "m slices, profile has ",
                          prof.compute_slices, "c/", prof.mem_slices, "m");
      }
      if (p.compute_start < 0 ||
          p.compute_start + p.compute_slices > arch.mig_slices) {
        return util::strf("gpu ", gi, ": ", p.function, " compute slices [",
                          p.compute_start, ", ",
                          p.compute_start + p.compute_slices,
                          ") outside budget ", arch.mig_slices);
      }
      if (p.mem_start < 0 || p.mem_start + p.mem_slices > arch.mem_slices) {
        return util::strf("gpu ", gi, ": ", p.function, " memory slices [",
                          p.mem_start, ", ", p.mem_start + p.mem_slices,
                          ") outside budget ", arch.mem_slices);
      }
      for (int s = p.compute_start; s < p.compute_start + p.compute_slices; ++s) {
        if (compute_used[static_cast<std::size_t>(s)]) {
          return util::strf("gpu ", gi, ": compute slice ", s,
                            " placed twice (", p.function, ")");
        }
        compute_used[static_cast<std::size_t>(s)] = true;
      }
      for (int s = p.mem_start; s < p.mem_start + p.mem_slices; ++s) {
        if (mem_used[static_cast<std::size_t>(s)]) {
          return util::strf("gpu ", gi, ": memory slice ", s, " placed twice (",
                            p.function, ")");
        }
        mem_used[static_cast<std::size_t>(s)] = true;
      }
    }
  }
  return "";
}

GpuLayout layout_from_profiles(
    const gpu::GpuArchSpec& arch,
    const std::vector<std::pair<std::string, std::string>>& assignments) {
  std::vector<Item> items;
  items.reserve(assignments.size());
  for (const auto& [fn, profile] : assignments) {
    items.push_back(Item{fn, gpu::mig_profile(arch, profile)});
  }
  return layout_from_items(arch, std::move(items));
}

PlanResult plan_fleet(const gpu::GpuArchSpec& arch, int gpu_count,
                      const std::vector<FunctionDemand>& demands,
                      const FleetPlan& current, const PlannerOptions& opts) {
  if (!arch.mig_capable) {
    throw util::ConfigError(arch.name + " is not MIG-capable");
  }
  if (gpu_count <= 0) throw util::ConfigError("plan_fleet needs gpus");

  // Canonical function order: the plan must be a pure function of the
  // demand *set*, not of caller ordering.
  std::vector<FunctionDemand> fns = demands;
  std::sort(fns.begin(), fns.end(),
            [](const FunctionDemand& a, const FunctionDemand& b) {
              return a.name < b.name;
            });
  for (std::size_t i = 1; i < fns.size(); ++i) {
    if (fns[i].name == fns[i - 1].name) {
      throw util::ConfigError("duplicate demand for function " + fns[i].name);
    }
  }

  std::vector<std::vector<Rung>> ladders;
  ladders.reserve(fns.size());
  for (const auto& d : fns) ladders.push_back(build_ladder(arch, d));

  const std::size_t n_gpus = static_cast<std::size_t>(gpu_count);
  const std::size_t n_fns = fns.size();
  // rung[g][f]: index into ladders[f], or -1 when f has no instance on g.
  std::vector<std::vector<int>> rung(n_gpus, std::vector<int>(n_fns, -1));
  std::vector<int> compute_used(n_gpus, 0);
  std::vector<int> mem_used(n_gpus, 0);
  std::vector<double> capacity(n_fns, 0.0);

  const auto fits = [&](std::size_t g, int dc, int dm) {
    return compute_used[g] + dc <= arch.mig_slices &&
           mem_used[g] + dm <= arch.mem_slices;
  };
  const auto place = [&](std::size_t g, std::size_t f, int r) {
    const Rung& next = ladders[f][static_cast<std::size_t>(r)];
    if (rung[g][f] >= 0) {
      const Rung& cur = ladders[f][static_cast<std::size_t>(rung[g][f])];
      compute_used[g] -= cur.profile.compute_slices;
      mem_used[g] -= cur.profile.mem_slices;
      capacity[f] -= cur.throughput;
    }
    compute_used[g] += next.profile.compute_slices;
    mem_used[g] += next.profile.mem_slices;
    capacity[f] += next.throughput;
    rung[g][f] = r;
  };
  const auto satisfied_delta = [&](std::size_t f, double extra) {
    return std::min(fns[f].rate_hz, capacity[f] + extra) -
           std::min(fns[f].rate_hz, capacity[f]);
  };

  // Level 1 (presence): every plannable function gets its floor profile
  // somewhere, even when a busier function could outbid it — a function with
  // no instance anywhere sheds 100% of its traffic, which no throughput win
  // elsewhere justifies. Seed busiest-first (rate descending, name ascending
  // on ties) so that when floors don't all fit, the slices go to functions
  // with demand instead of whoever sorts first; each floor lands on the
  // emptiest device (most free compute slices, lowest index on ties).
  std::vector<std::size_t> seed_order(n_fns);
  for (std::size_t f = 0; f < n_fns; ++f) seed_order[f] = f;
  std::sort(seed_order.begin(), seed_order.end(),
            [&fns](std::size_t a, std::size_t b) {
              if (fns[a].rate_hz != fns[b].rate_hz) {
                return fns[a].rate_hz > fns[b].rate_hz;
              }
              return fns[a].name < fns[b].name;
            });
  for (const std::size_t f : seed_order) {
    if (ladders[f].empty()) continue;
    const Rung& floor = ladders[f].front();
    int best_g = -1;
    for (std::size_t g = 0; g < n_gpus; ++g) {
      if (!fits(g, floor.profile.compute_slices, floor.profile.mem_slices)) {
        continue;
      }
      if (best_g < 0 || compute_used[g] <
                            compute_used[static_cast<std::size_t>(best_g)]) {
        best_g = static_cast<int>(g);
      }
    }
    if (best_g >= 0) place(static_cast<std::size_t>(best_g), f, 0);
  }

  // Level 2 (packing): repeat the single best move — add a function's floor
  // instance to a device it is absent from, or upgrade an existing instance
  // one rung — ranked by satisfied-demand gain per slice consumed
  // (ParvaGPU-style fragmentation pressure). Ties break to the lowest device
  // index, then the lowest function name; determinism is load-bearing
  // (idempotence property).
  while (true) {
    double best_score = 0;
    double best_gain = 0;
    std::size_t best_g = 0;
    std::size_t best_f = 0;
    int best_r = -1;
    for (std::size_t g = 0; g < n_gpus; ++g) {
      for (std::size_t f = 0; f < n_fns; ++f) {
        if (ladders[f].empty()) continue;
        int target;
        int dc;
        int dm;
        double dt;
        if (rung[g][f] < 0) {
          target = 0;
          const Rung& r0 = ladders[f].front();
          dc = r0.profile.compute_slices;
          dm = r0.profile.mem_slices;
          dt = r0.throughput;
        } else {
          target = rung[g][f] + 1;
          if (static_cast<std::size_t>(target) >= ladders[f].size()) continue;
          const Rung& cur = ladders[f][static_cast<std::size_t>(rung[g][f])];
          const Rung& nxt = ladders[f][static_cast<std::size_t>(target)];
          dc = nxt.profile.compute_slices - cur.profile.compute_slices;
          dm = nxt.profile.mem_slices - cur.profile.mem_slices;
          dt = nxt.throughput - cur.throughput;
        }
        if (!fits(g, dc, dm)) continue;
        const double gain = satisfied_delta(f, dt);
        if (gain <= 1e-9) continue;
        const double cost = std::max(1, dc + dm);
        const double score = gain / cost;
        if (score > best_score + 1e-12) {
          best_score = score;
          best_gain = gain;
          best_g = g;
          best_f = f;
          best_r = target;
        }
      }
    }
    if (best_r < 0 || best_gain <= 1e-9) break;
    place(best_g, best_f, best_r);
  }

  PlanResult result;
  result.plan.gpus.resize(n_gpus);
  for (std::size_t g = 0; g < n_gpus; ++g) {
    std::vector<Item> items;
    for (std::size_t f = 0; f < n_fns; ++f) {
      if (rung[g][f] < 0) continue;
      items.push_back(
          Item{fns[f].name,
               ladders[f][static_cast<std::size_t>(rung[g][f])].profile});
    }
    result.plan.gpus[g] = layout_from_items(arch, std::move(items));
  }

  result.objective = planner_objective(fns, result.plan);
  result.current_objective = planner_objective(fns, current);
  result.predicted_gain_hz = result.objective - result.current_objective;
  for (std::size_t g = 0; g < n_gpus; ++g) {
    const GpuLayout empty;
    const GpuLayout& was = g < current.gpus.size() ? current.gpus[g] : empty;
    if (layout_key(result.plan.gpus[g]) != layout_key(was)) {
      ++result.gpus_changed;
    }
  }

  double total_rate = 0;
  for (const auto& d : fns) total_rate += d.rate_hz;
  if (result.gpus_changed == 0) {
    result.reason = "no-change";
  } else if (result.predicted_gain_hz <= opts.min_gain_hz + 1e-12) {
    result.reason = "gain-below-threshold";
  } else {
    // Reset-cost amortization: a changed device serves nothing for
    // reset_cost_s; the share of offered load it would have carried is lost.
    // Apply only when the gain, integrated over the planning horizon, buys
    // back more requests than the resets discard.
    const double requests_gained = result.predicted_gain_hz * opts.horizon_s;
    const double requests_lost = total_rate *
                                 (static_cast<double>(result.gpus_changed) /
                                  static_cast<double>(gpu_count)) *
                                 opts.reset_cost_s;
    result.apply = requests_gained > requests_lost;
    result.reason = result.apply ? "apply" : "reset-cost-dominates";
  }
  return result;
}

}  // namespace faaspart::core

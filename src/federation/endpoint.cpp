#include "federation/endpoint.hpp"

#include "faults/faults.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::federation {

Endpoint::Endpoint(sim::Simulator& sim, Options opts, trace::Recorder* rec)
    : sim_(sim),
      opts_(std::move(opts)),
      rec_(rec),
      devices_(sim, rec),
      provider_(sim, opts_.cpu_cores),
      partitioner_(devices_),
      dfk_(sim, faas::Config{.retries = opts_.dfk_retries}),
      wan_gate_(sim, /*open=*/true) {
  FP_CHECK_MSG(!opts_.name.empty(), "endpoint needs a name");
  FP_CHECK_MSG(opts_.rtt.ns >= 0, "negative RTT");
  for (const auto& arch : opts_.gpus) devices_.add_device(arch);
  if (auto* fi = sim_.faults()) {
    fault_subs_.push_back(fi->subscribe(
        faults::FaultKind::kWanPartition, "endpoint:" + opts_.name,
        [this](const faults::FaultEvent& ev) {
          partition_for(ev.duration.ns > 0 ? ev.duration : util::seconds(1));
        }));
  }
}

Endpoint::~Endpoint() {
  if (auto* fi = sim_.faults()) {
    for (const auto id : fault_subs_) fi->unsubscribe(id);
  }
}

void Endpoint::partition_for(util::Duration length) {
  FP_CHECK_MSG(length.ns > 0, "partition needs a positive length");
  ++wan_partitions_;
  if (auto* tel = sim_.telemetry()) {
    tel->metrics()
        // faaspart-lint: allow(O1) -- cold path: WAN partitions are injected
        // faults, a handful per run
        .counter("federation_wan_partitions_total", {{"endpoint", opts_.name}})
        .add();
  }
  const util::TimePoint until = sim_.now() + length;
  if (until.ns > partition_until_.ns) partition_until_ = until;
  wan_gate_.close();
  sim_.schedule_at(partition_until_, [this] {
    // An overlapping later partition may have pushed the heal time out.
    if (sim_.now() >= partition_until_ && !wan_gate_.is_open()) {
      wan_gate_.open();
    }
  });
}

void Endpoint::count_dispatch() {
  ++dispatches_;
  if (auto* tel = sim_.telemetry()) {
    if (dispatch_counter_ == nullptr) {
      dispatch_counter_ = &tel->metrics().counter("federation_dispatches_total",
                                                  {{"endpoint", opts_.name}});
    }
    dispatch_counter_->add();
  }
}

void Endpoint::begin_repartition() {
  FP_CHECK_MSG(!repartitioning_, "repartition already in progress");
  repartitioning_ = true;
  if (auto* tel = sim_.telemetry()) {
    tel->metrics()
        // faaspart-lint: allow(O1) -- cold path: a repartition costs seconds
        // of simulated drain + reset time, one lookup is noise
        .counter("federation_repartitions_total", {{"endpoint", opts_.name}})
        .add();
  }
}

void Endpoint::end_repartition() {
  FP_CHECK_MSG(repartitioning_, "end_repartition without begin");
  repartitioning_ = false;
}

bool Endpoint::serves(const std::string& function_id) const {
  const auto it = serving_.find(function_id);
  return it == serving_.end() || it->second;
}

void Endpoint::set_serving(const std::string& function_id, bool serving) {
  serving_[function_id] = serving;
}

void Endpoint::add_cpu_executor(const std::string& label, int workers) {
  faas::HighThroughputExecutor::Options ex_opts;
  ex_opts.label = label;
  ex_opts.cpu_workers = workers;
  auto ex = std::make_unique<faas::HighThroughputExecutor>(
      sim_, provider_, std::move(ex_opts), nullptr, rec_);
  ex->start();
  dfk_.add_executor(std::move(ex));
  worker_slots_ += static_cast<std::size_t>(workers);
}

void Endpoint::add_gpu_executor(const faas::HtexConfig& cfg,
                                faas::ModelLoader* loader) {
  if (loader == nullptr) loader = cache_.get();
  auto ex = partitioner_.build_executor(sim_, provider_, cfg, loader, rec_);
  gpu_executors_[cfg.label] = ex.get();
  dfk_.add_executor(std::move(ex));
  worker_slots_ += cfg.available_accelerators.empty()
                       ? static_cast<std::size_t>(cfg.max_workers)
                       : cfg.available_accelerators.size();
}

core::WeightCache& Endpoint::enable_weight_cache(util::Duration attach_cost,
                                                 util::Bytes capacity) {
  FP_CHECK_MSG(cache_ == nullptr, "weight cache already enabled");
  FP_CHECK_MSG(gpu_executors_.empty(),
               "enable_weight_cache must precede add_gpu_executor");
  cache_ = std::make_unique<core::WeightCache>(attach_cost, capacity);
  return *cache_;
}

bool Endpoint::holds_model(const std::string& model_key) const {
  return cache_ != nullptr && cache_->holds(model_key);
}

util::Duration Endpoint::cold_start_estimate(const faas::AppDef& app) const {
  if (app.model_bytes <= 0) return app.function_init;
  if (holds_model(app.effective_model_key())) return cache_->attach_cost();
  // Uploads ride the first device's model-load path; a GPU-less endpoint
  // keeps a pessimistic default so routing still orders sensibly.
  const double bw = devices_.device_count() > 0
                        ? devices_.device(0).arch().model_load_bw
                        : 1e9;
  return app.function_init +
         util::from_seconds(static_cast<double>(app.model_bytes) / bw);
}

core::Autoscaler& Endpoint::enable_autoscaler(
    const std::vector<std::pair<std::string, int>>& tenants,
    util::TimePoint deadline, core::AutoscalerOptions opts) {
  FP_CHECK_MSG(autoscaler_ == nullptr, "autoscaler already enabled");
  FP_CHECK_MSG(!tenants.empty(), "autoscaler needs tenants");
  if (reconfigurer_ == nullptr) {
    reconfigurer_ = std::make_unique<core::Reconfigurer>(devices_);
  }
  autoscaler_ = std::make_unique<core::Autoscaler>(sim_, *reconfigurer_, opts);
  for (const auto& [label, pct] : tenants) {
    const auto it = gpu_executors_.find(label);
    FP_CHECK_MSG(it != gpu_executors_.end(),
                 "autoscaler tenant must be a GPU executor label");
    autoscaler_->add_tenant(*it->second, pct);
  }
  sim_.spawn(autoscaler_->run(deadline), "autoscaler@" + opts_.name);
  return *autoscaler_;
}

faas::HighThroughputExecutor& Endpoint::gpu_executor(const std::string& label) {
  const auto it = gpu_executors_.find(label);
  if (it == gpu_executors_.end()) {
    throw util::NotFoundError(
        util::strf("no GPU executor '", label, "' on ", opts_.name));
  }
  return *it->second;
}

core::Reconfigurer& Endpoint::reconfigurer() {
  if (reconfigurer_ == nullptr) {
    reconfigurer_ = std::make_unique<core::Reconfigurer>(devices_);
  }
  return *reconfigurer_;
}

}  // namespace faaspart::federation

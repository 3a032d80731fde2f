#include "nvml/manager.hpp"

#include "sched/slot.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::nvml {

DeviceManager::DeviceManager(sim::Simulator& sim, trace::Recorder* rec)
    : sim_(sim), rec_(rec) {}

int DeviceManager::add_device(gpu::GpuArchSpec arch) {
  const int index = static_cast<int>(devices_.size());
  devices_.push_back(std::make_unique<gpu::Device>(
      sim_, std::move(arch), index, sched::timeshare_factory(), rec_));
  return index;
}

gpu::Device& DeviceManager::device(int index) {
  if (index < 0 || static_cast<std::size_t>(index) >= devices_.size()) {
    throw util::NotFoundError(util::strf("GPU index ", index));
  }
  return *devices_[static_cast<std::size_t>(index)];
}

const gpu::Device& DeviceManager::device(int index) const {
  if (index < 0 || static_cast<std::size_t>(index) >= devices_.size()) {
    throw util::NotFoundError(util::strf("GPU index ", index));
  }
  return *devices_[static_cast<std::size_t>(index)];
}

DeviceStatus DeviceManager::status(int index) const {
  const gpu::Device& dev = device(index);
  DeviceStatus st;
  st.index = index;
  st.name = dev.arch().name;
  st.mig_enabled = dev.mig_enabled();
  st.contexts = dev.context_count();
  st.memory_total = dev.arch().memory;
  st.sharing_policy = dev.engine().policy_name();
  if (dev.mig_enabled()) {
    util::Bytes used = 0;
    for (const auto id : dev.instance_ids()) {
      const auto& inst = dev.instance(id);
      used += inst.memory->used();
      st.mig_instances.push_back(inst.uuid);
    }
    st.memory_used = used;
  } else {
    st.memory_used = dev.memory().used();
  }
  return st;
}

int DeviceManager::device_of_instance(const std::string& uuid) const {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const auto& dev = *devices_[i];
    for (const auto id : dev.instance_ids()) {
      if (dev.instance(id).uuid == uuid) return static_cast<int>(i);
    }
  }
  throw util::NotFoundError(util::strf("MIG instance '", uuid, "'"));
}

sim::Co<std::vector<std::string>> DeviceManager::configure_mig(
    int index, std::vector<std::string> profiles) {
  gpu::Device& dev = device(index);
  // The reset itself fails fast if clients are still attached — check first
  // so the caller does not pay the reset delay for an invalid request.
  if (dev.context_count() > 0) {
    throw util::StateError(util::strf("configure_mig on GPU", index, " with ",
                                      dev.context_count(), " live context(s)"));
  }
  // GPU reset (§6: adds 1–2 s and interferes with everything on the GPU).
  co_await sim_.delay(dev.arch().mig_reset);
  if (dev.mig_enabled()) {
    for (const auto id : dev.instance_ids()) dev.destroy_instance(id);
  } else {
    dev.enable_mig();
  }
  std::vector<std::string> uuids;
  uuids.reserve(profiles.size());
  for (const auto& p : profiles) {
    const auto id = dev.create_instance(p);
    uuids.push_back(dev.instance(id).uuid);
  }
  co_return uuids;
}

sim::Co<void> DeviceManager::clear_mig(int index) {
  gpu::Device& dev = device(index);
  if (!dev.mig_enabled()) co_return;
  co_await sim_.delay(dev.arch().mig_reset);
  dev.disable_mig();
}

}  // namespace faaspart::nvml

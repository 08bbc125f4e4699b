#include "runtime/fleet_runtime.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace fedpower::runtime {

std::vector<DeviceHardware> make_hardware(
    const sim::ProcessorConfig& processor_config,
    const std::vector<std::vector<sim::AppProfile>>& device_apps,
    util::Rng& root) {
  FEDPOWER_EXPECTS(!device_apps.empty());
  std::vector<DeviceHardware> hardware;
  hardware.reserve(device_apps.size());
  for (const auto& apps : device_apps) {
    DeviceHardware device;
    device.processor =
        std::make_unique<sim::Processor>(processor_config, root.split());
    device.workload = std::make_unique<sim::RandomWorkload>(apps);
    device.processor->set_workload(device.workload.get());
    device.brain_rng = root.split();
    hardware.push_back(std::move(device));
  }
  return hardware;
}

void LazyDeviceClient::receive_global(std::span<const double> params) {
  resolve().receive_global(params);
}

std::vector<double> LazyDeviceClient::local_parameters() const {
  return resolve().local_parameters();
}

void LazyDeviceClient::run_local_round() { resolve().run_local_round(); }

std::size_t LazyDeviceClient::local_sample_count() const {
  return resolve().local_sample_count();
}

fed::FederatedClient& LazyDeviceClient::resolve() const {
  fleet_->hydrate(device_);
  return fleet_->client_view(device_);
}

FleetRuntime::FleetRuntime(
    const std::vector<core::ControllerConfig>& configs,
    const sim::ProcessorConfig& processor_config,
    const std::vector<std::vector<sim::AppProfile>>& device_apps,
    std::uint64_t seed, const FleetOptions& options)
    : configs_(configs),
      processor_config_(processor_config),
      device_apps_(device_apps),
      lazy_(options.lazy) {
  FEDPOWER_EXPECTS(!device_apps_.empty());
  FEDPOWER_EXPECTS(configs_.size() == 1 ||
                   configs_.size() == device_apps_.size());
  const std::size_t count = device_apps_.size();
  controllers_.resize(count);
  attackers_.resize(count);
  faults_.resize(count);
  util::Rng root(seed);
  if (lazy_) {
    // Deal every device its two canonical streams without constructing
    // anything: the split order here IS make_hardware's, so a device
    // hydrated later is bit-identical to one built eagerly.
    hardware_.resize(count);
    cold_.resize(count);
    for (std::size_t d = 0; d < count; ++d) {
      cold_[d].processor_rng = root.split().state();
      cold_[d].brain_rng = root.split().state();
    }
  } else {
    hardware_ = make_hardware(processor_config_, device_apps_, root);
    for (std::size_t d = 0; d < count; ++d) {
      const core::ControllerConfig& config =
          configs_.size() == 1 ? configs_.front() : configs_[d];
      controllers_[d] = std::make_unique<core::PowerController>(
          config, hardware_[d].processor.get(), hardware_[d].brain_rng);
    }
  }
  const std::size_t threads = resolve_num_threads(options.num_threads);
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

FleetRuntime::FleetRuntime(
    const std::vector<core::ControllerConfig>& configs,
    const sim::ProcessorConfig& processor_config,
    const std::vector<std::vector<sim::AppProfile>>& device_apps,
    std::uint64_t seed, std::size_t num_threads)
    : FleetRuntime(configs, processor_config, device_apps, seed,
                   FleetOptions{num_threads, false}) {}

std::size_t FleetRuntime::hot_count() const noexcept {
  std::size_t count = 0;
  for (const DeviceHardware& device : hardware_)
    if (device.processor) ++count;
  return count;
}

void FleetRuntime::construct_device(
    std::size_t d, const std::array<std::uint64_t, 4>& processor_rng,
    const std::array<std::uint64_t, 4>& brain_rng) {
  util::Rng processor_stream(1);
  processor_stream.set_state(processor_rng);
  DeviceHardware& device = hardware_[d];
  device.processor = std::make_unique<sim::Processor>(processor_config_,
                                                      processor_stream);
  device.workload = std::make_unique<sim::RandomWorkload>(device_apps_[d]);
  device.processor->set_workload(device.workload.get());
  device.brain_rng.set_state(brain_rng);
  const core::ControllerConfig& config =
      configs_.size() == 1 ? configs_.front() : configs_[d];
  controllers_[d] = std::make_unique<core::PowerController>(
      config, device.processor.get(), device.brain_rng);
  // Fault configs survive the cold state (configuration, not state):
  // re-arm them exactly as inject_faults did.
  device.processor->inject_faults(faults_[d].hardware);
  if (faults_[d].upload.attack != fed::UploadAttack::kNone) {
    attackers_[d] = std::make_unique<fed::ByzantineClient>(
        controllers_[d].get(), faults_[d].upload);
  }
}

void FleetRuntime::restore_device(std::size_t d, ckpt::Reader& in) {
  hardware_[d].processor->restore_state(in);
  controllers_[d]->restore_state(in);
  if (attackers_[d]) attackers_[d]->restore_state(in);
}

void FleetRuntime::hydrate(std::size_t device) {
  FEDPOWER_EXPECTS(device < hardware_.size());
  if (hot(device)) return;
  ColdDeviceState& cold = cold_[device];
  construct_device(device, cold.processor_rng, cold.brain_rng);
  if (!cold.blob.empty()) {
    ckpt::Reader in(cold.blob);
    restore_device(device, in);
    cold.blob.clear();
    cold.blob.shrink_to_fit();
  }
}

void FleetRuntime::dehydrate(std::size_t device) {
  ckpt::Writer scratch;
  dehydrate_with(device, scratch);
}

void FleetRuntime::dehydrate_with(std::size_t device, ckpt::Writer& scratch) {
  FEDPOWER_EXPECTS(device < hardware_.size());
  if (!lazy_ || !hot(device)) return;
  scratch.clear();
  hardware_[device].processor->save_state(scratch);
  controllers_[device]->save_state(scratch);
  if (attackers_[device]) attackers_[device]->save_state(scratch);
  // An exact-sized copy: the scratch keeps its growth slack for the next
  // device, the blob that stays resident does not.
  cold_[device].blob.assign(scratch.data().begin(), scratch.data().end());
  // Destruction order mirrors the dependency chain: the attacker wraps the
  // controller, the controller drives the processor, the processor reads
  // the workload.
  attackers_[device].reset();
  controllers_[device].reset();
  hardware_[device].processor.reset();
  hardware_[device].workload.reset();
}

void FleetRuntime::dehydrate_inactive(std::span<const std::size_t> keep_hot) {
  ckpt::Writer scratch;
  for (std::size_t d = 0; d < hardware_.size(); ++d) {
    if (!hot(d)) continue;
    if (!std::binary_search(keep_hot.begin(), keep_hot.end(), d))
      dehydrate_with(d, scratch);
  }
}

void FleetRuntime::inject_faults(std::size_t device,
                                 const DeviceFaultConfig& faults) {
  FEDPOWER_EXPECTS(device < controllers_.size());
  hydrate(device);
  faults_[device] = faults;
  hardware_[device].processor->inject_faults(faults.hardware);
  if (faults.upload.attack != fed::UploadAttack::kNone) {
    attackers_[device] = std::make_unique<fed::ByzantineClient>(
        controllers_[device].get(), faults.upload);
  } else {
    attackers_[device].reset();
  }
}

std::vector<std::size_t> FleetRuntime::attacked_devices() const {
  std::vector<std::size_t> out;
  for (std::size_t d = 0; d < attackers_.size(); ++d)
    if (attackers_[d]) out.push_back(d);
  return out;
}

std::vector<fed::FederatedClient*> FleetRuntime::clients() {
  std::vector<fed::FederatedClient*> out;
  out.reserve(controllers_.size());
  if (lazy_) {
    // Stable proxies, one per device; the fleet stays cold until the
    // federation actually touches a device.
    if (proxies_.empty()) {
      proxies_.reserve(controllers_.size());
      for (std::size_t d = 0; d < controllers_.size(); ++d)
        proxies_.push_back(std::make_unique<LazyDeviceClient>(this, d));
    }
    for (const auto& proxy : proxies_) out.push_back(proxy.get());
    return out;
  }
  for (std::size_t d = 0; d < controllers_.size(); ++d) {
    if (attackers_[d]) {
      out.push_back(attackers_[d].get());
    } else {
      out.push_back(controllers_[d].get());
    }
  }
  return out;
}

void FleetRuntime::run_local_round() {
  // Route through the client view so an attacker's per-round bookkeeping
  // (replay history, activation counter) advances exactly as it would when
  // a federation drives the round.
  for_each_device([this](std::size_t d) { client_view(d).run_local_round(); });
}

void FleetRuntime::for_each_device(
    const std::function<void(std::size_t)>& body) {
  // Whole-fleet semantics: materialize everything up front, serially and
  // in index order, so the parallel bodies never race on hydration.
  if (lazy_)
    for (std::size_t d = 0; d < hardware_.size(); ++d) hydrate(d);
  if (pool_) {
    pool_->parallel_for(0, controllers_.size(), body);
    return;
  }
  for (std::size_t d = 0; d < controllers_.size(); ++d) body(d);
}

util::ParallelFor FleetRuntime::executor() {
  return pool_ ? pool_->executor() : util::ParallelFor{};
}

namespace {
constexpr ckpt::Tag kFleetTag{'F', 'L', 'T', '1'};
constexpr ckpt::Tag kFleetTagLazy{'F', 'L', 'T', '2'};

/// Per-device record kinds of the FLT2 layout.
constexpr std::uint8_t kColdPristine = 0;
constexpr std::uint8_t kHotInline = 1;
constexpr std::uint8_t kColdDehydrated = 2;

bool all_zero(const std::array<std::uint64_t, 4>& state) noexcept {
  return state[0] == 0 && state[1] == 0 && state[2] == 0 && state[3] == 0;
}

std::array<std::uint64_t, 4> read_rng_state(ckpt::Reader& in) {
  std::array<std::uint64_t, 4> state{};
  for (std::uint64_t& word : state) word = in.u64();
  if (all_zero(state))
    throw ckpt::CorruptSnapshotError(
        "fleet snapshot cold record holds an all-zero RNG state");
  return state;
}
}  // namespace

// Save writes one of two layouts behind the FLT1/FLT2 tag; restore
// dispatches on the tag it reads, so the typed sequences differ by design.
// lint: ckpt-sym-ok(dual-format dispatch: restore branches on the tag it reads)
void FleetRuntime::save_state(ckpt::Writer& out) const {
  if (!lazy_) {
    // The historic eager layout, byte for byte.
    write_tag(out, kFleetTag);
    out.u64(controllers_.size());
    for (std::size_t d = 0; d < controllers_.size(); ++d) {
      hardware_[d].processor->save_state(out);
      controllers_[d]->save_state(out);
      // Attacker state is appended only for attacked devices: clean fleets
      // keep the attack-free byte format, and both sides of a resume must
      // agree on which devices are compromised.
      if (attackers_[d]) attackers_[d]->save_state(out);
    }
    return;
  }
  // FLT2: cold devices are saved as their compact records — snapshotting a
  // 100k-device lazy fleet must not materialize it.
  write_tag(out, kFleetTagLazy);
  out.u64(controllers_.size());
  for (std::size_t d = 0; d < controllers_.size(); ++d) {
    if (hot(d)) {
      out.u8(kHotInline);
      hardware_[d].processor->save_state(out);
      controllers_[d]->save_state(out);
      if (attackers_[d]) attackers_[d]->save_state(out);
    } else if (cold_[d].blob.empty()) {
      out.u8(kColdPristine);
      for (const std::uint64_t word : cold_[d].processor_rng) out.u64(word);
      for (const std::uint64_t word : cold_[d].brain_rng) out.u64(word);
    } else {
      out.u8(kColdDehydrated);
      out.vec_u8(cold_[d].blob);
    }
  }
}

void FleetRuntime::restore_state(ckpt::Reader& in) {
  const bool lazy_format =
      ckpt::expect_tag_of(in, {kFleetTag, kFleetTagLazy}, "fleet runtime") ==
      1;
  const std::uint64_t device_count = in.u64();
  if (device_count != controllers_.size())
    throw ckpt::StateMismatchError(
        "fleet snapshot holds " + std::to_string(device_count) +
        " device(s), this fleet has " + std::to_string(controllers_.size()));

  if (!lazy_format) {
    for (std::size_t d = 0; d < controllers_.size(); ++d) {
      hydrate(d);  // no-op for eager fleets
      restore_device(d, in);
    }
    return;
  }

  // FLT2 restores into either kind of fleet: a lazy one keeps cold records
  // cold; an eager one materializes them on the spot (it has nowhere else
  // to put them).
  for (std::size_t d = 0; d < controllers_.size(); ++d) {
    const std::uint8_t kind = in.u8();
    switch (kind) {
      case kColdPristine: {
        const auto processor_rng = read_rng_state(in);
        const auto brain_rng = read_rng_state(in);
        if (lazy_) {
          attackers_[d].reset();
          controllers_[d].reset();
          hardware_[d].processor.reset();
          hardware_[d].workload.reset();
          cold_[d].processor_rng = processor_rng;
          cold_[d].brain_rng = brain_rng;
          cold_[d].blob.clear();
        } else {
          attackers_[d].reset();
          controllers_[d].reset();
          construct_device(d, processor_rng, brain_rng);
        }
        break;
      }
      case kHotInline: {
        hydrate(d);
        restore_device(d, in);
        break;
      }
      case kColdDehydrated: {
        std::vector<std::uint8_t> blob = in.vec_u8();
        if (lazy_) {
          attackers_[d].reset();
          controllers_[d].reset();
          hardware_[d].processor.reset();
          hardware_[d].workload.reset();
          cold_[d].blob = std::move(blob);
        } else {
          ckpt::Reader blob_in(blob);
          restore_device(d, blob_in);
        }
        break;
      }
      default:
        throw ckpt::CorruptSnapshotError(
            "fleet snapshot device record has unknown kind " +
            std::to_string(kind));
    }
  }
}

}  // namespace fedpower::runtime

#include "runtime/fleet_runtime.hpp"

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "ckpt/fields.hpp"
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

void LazyDeviceClient::copy_local_parameters_to(
    std::vector<double>& out) const {
  resolve().copy_local_parameters_to(out);
}

void LazyDeviceClient::run_local_round() { resolve().run_local_round(); }

std::size_t LazyDeviceClient::local_sample_count() const {
  return resolve().local_sample_count();
}

fed::FederatedClient& LazyDeviceClient::resolve() const {
  fleet_->hydrate(device_);
  return fleet_->client_view(device_);
}

namespace {

util::Rng rng_at(const std::array<std::uint64_t, 4>& state) {
  util::Rng rng(1);
  rng.set_state(state);
  return rng;
}

/// An app's phases as raw bytes: equal bytes are equal bits in every
/// field, so +0.0 and -0.0 (or two doubles 1 ulp apart) stay distinct.
/// Padding could only keep equal lists apart, never merge different ones.
std::string_view phase_bytes(const sim::AppProfile& app) {
  return {reinterpret_cast<const char*>(app.phases.data()),
          app.phases.size() * sizeof(sim::PhaseProfile)};
}

std::uint64_t hash_bits(const std::vector<sim::AppProfile>& apps) {
  std::uint64_t hash = apps.size();
  for (const sim::AppProfile& app : apps) {
    for (const std::string_view bytes : {std::string_view(app.name),
                                         phase_bytes(app)}) {
      std::uint64_t state = hash ^ std::hash<std::string_view>{}(bytes);
      hash = util::splitmix64(state);
    }
  }
  return hash;
}

/// Two lists share one interned copy only when they are equal bit for bit.
bool same_bits(const std::vector<sim::AppProfile>& a,
               const std::vector<sim::AppProfile>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].name != b[i].name || phase_bytes(a[i]) != phase_bytes(b[i]))
      return false;
  return true;
}

}  // namespace

FleetRuntime::HotDevice::HotDevice(
    const sim::ProcessorConfig& processor_config,
    const core::ControllerConfig& config, const DeviceRecipe& recipe)
    : processor(processor_config, rng_at(recipe.processor_rng)),
      controller(config, &processor, rng_at(recipe.brain_rng)) {
  processor.set_workload(&workload);
  attach(recipe);
}

void FleetRuntime::HotDevice::reset(const DeviceRecipe& recipe) {
  processor.reset(rng_at(recipe.processor_rng));
  controller.reset(rng_at(recipe.brain_rng));
  attach(recipe);
}

void FleetRuntime::HotDevice::attach(const DeviceRecipe& recipe) {
  workload.bind(recipe.apps);
  arm(recipe.faults);
}

void FleetRuntime::HotDevice::arm(const DeviceFaultConfig& faults) {
  processor.inject_faults(faults.hardware);
  if (faults.upload.attack == fed::UploadAttack::kNone) {
    attacker.reset();
  } else if (attacker) {
    attacker->reset(faults.upload);
  } else {
    attacker.emplace(&controller, faults.upload);
  }
}

template <class Self, class Io>
void FleetRuntime::HotDevice::fields(Self& s, Io& io) {
  io.section(s.processor);
  io.section(s.controller);
  // Attacker state is appended only for attacked devices: clean fleets
  // keep the attack-free byte format, and both sides of a resume must
  // agree on which devices are compromised.
  if (s.attacker) io.section(*s.attacker);
}

FEDPOWER_CKPT_FIELDS(FleetRuntime::HotDevice)

FleetRuntime::FleetRuntime(
    const std::vector<core::ControllerConfig>& configs,
    const sim::ProcessorConfig& processor_config,
    const std::vector<std::vector<sim::AppProfile>>& device_apps,
    std::uint64_t seed, const FleetOptions& options)
    : configs_(configs),
      processor_config_(processor_config),
      lazy_(options.lazy) {
  FEDPOWER_EXPECTS(!device_apps.empty());
  FEDPOWER_EXPECTS(configs_.size() == 1 ||
                   configs_.size() == device_apps.size());
  const std::size_t count = device_apps.size();
  intern_app_sets(device_apps);
  devices_.resize(count);
  if (lazy_) cold_.resize(count);
  // Deal every device its two canonical streams: the split order here IS
  // make_hardware's. A lazy fleet only records them, so a device hydrated
  // later is bit-identical to one an eager fleet builds on the spot.
  util::Rng root(seed);
  for (std::size_t d = 0; d < count; ++d) {
    const std::array<std::uint64_t, 4> processor_rng = root.split().state();
    const std::array<std::uint64_t, 4> brain_rng = root.split().state();
    if (lazy_) {
      cold_[d].processor_rng = processor_rng;
      cold_[d].brain_rng = brain_rng;
    } else {
      devices_[d] = build_device(d, processor_rng, brain_rng);
    }
  }
  rescan_hot();
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

void FleetRuntime::intern_app_sets(
    const std::vector<std::vector<sim::AppProfile>>& device_apps) {
  // Hash -> indices into app_sets_. Only looked up, never iterated, so its
  // bucket order cannot reach the results; a hash collision costs one
  // extra comparison, never a merge. Each distinct list is validated once,
  // as sim::RandomWorkload validates the lists it copies.
  std::unordered_multimap<std::uint64_t, std::uint32_t> by_hash;
  app_set_of_.reserve(device_apps.size());
  for (const std::vector<sim::AppProfile>& apps : device_apps) {
    const std::uint64_t hash = hash_bits(apps);
    const auto [first, last] = by_hash.equal_range(hash);
    auto match = std::find_if(first, last, [&](const auto& entry) {
      return same_bits(app_sets_[entry.second], apps);
    });
    if (match == last) {
      FEDPOWER_EXPECTS(app_sets_.size() < UINT32_MAX);
      FEDPOWER_EXPECTS(!apps.empty());
      for (const sim::AppProfile& app : apps) sim::validate(app);
      match = by_hash.emplace(
          hash, static_cast<std::uint32_t>(app_sets_.size()));
      app_sets_.push_back(apps);
    }
    app_set_of_.push_back(match->second);
  }
}

void FleetRuntime::rescan_hot() {
  hot_.clear();
  for (std::size_t d = 0; d < devices_.size(); ++d)
    if (devices_[d]) hot_.push_back(d);
}

std::unique_ptr<FleetRuntime::HotDevice> FleetRuntime::build_device(
    std::size_t d, const std::array<std::uint64_t, 4>& processor_rng,
    const std::array<std::uint64_t, 4>& brain_rng) {
  // Fault configs survive the cold state (configuration, not state):
  // re-arm them exactly as inject_faults did.
  static const DeviceFaultConfig kHonest{};
  const auto faults = faults_.find(d);
  const DeviceRecipe recipe{app_sets_[app_set_of_[d]], processor_rng,
                            brain_rng,
                            faults == faults_.end() ? kHonest : faults->second};
  if (!spares_.empty()) {
    std::unique_ptr<HotDevice> device = std::move(spares_.back());
    spares_.pop_back();
    device->reset(recipe);
    return device;
  }
  const core::ControllerConfig& config =
      configs_.size() == 1 ? configs_.front() : configs_[d];
  return std::make_unique<HotDevice>(processor_config_, config, recipe);
}

void FleetRuntime::recycle(std::unique_ptr<HotDevice> device) {
  // A spare is reset into whichever device hydrates next, so it must have
  // been built with that device's config: with per-device configs (reward
  // poisoning gives compromised devices their own) none is kept.
  if (configs_.size() == 1) spares_.push_back(std::move(device));
}

void FleetRuntime::hydrate(std::size_t device) {
  FEDPOWER_EXPECTS(device < devices_.size());
  if (hot(device)) return;
  ColdDeviceState& cold = cold_[device];
  // Built aside and installed only once fully restored: a blob that fails
  // to restore leaves the device cold, its blob intact, and the objects
  // spare.
  std::unique_ptr<HotDevice> built =
      build_device(device, cold.processor_rng, cold.brain_rng);
  if (!cold.blob.empty()) {
    try {
      restore_blob(*built, cold.blob);
    } catch (...) {
      recycle(std::move(built));
      throw;
    }
  }
  hot_.push_back(device);
  devices_[device] = std::move(built);
  std::vector<std::uint8_t>().swap(cold.blob);
}

void FleetRuntime::restore_blob(HotDevice& device,
                                std::span<const std::uint8_t> blob) {
  ckpt::Reader in(blob);
  device.restore_state(in);
  if (!in.exhausted())
    throw ckpt::CorruptSnapshotError(
        "fleet device state blob has " + std::to_string(in.remaining()) +
        " byte(s) left after the device's sections");
}

void FleetRuntime::dehydrate(std::size_t device) {
  ckpt::Writer scratch;
  dehydrate_with(device, scratch);
  if (!hot(device)) std::erase(hot_, device);
}

void FleetRuntime::dehydrate_with(std::size_t device, ckpt::Writer& scratch) {
  FEDPOWER_EXPECTS(device < devices_.size());
  if (!lazy_ || !hot(device)) return;
  scratch.clear();
  devices_[device]->save_state(scratch);
  // An exact-sized copy: the scratch keeps its growth slack for the next
  // device, the blob that stays resident does not.
  cold_[device].blob.assign(scratch.data().begin(), scratch.data().end());
  recycle(std::move(devices_[device]));
}

void FleetRuntime::dehydrate_inactive(std::span<const std::size_t> keep_hot) {
  if (!lazy_) return;
  // Ascending index order, as a scan over every device would visit them.
  // The kept devices are compacted to the front of hot_; if a dehydration
  // throws, the devices not yet visited are still hot and stay listed.
  std::sort(hot_.begin(), hot_.end());
  spares_.clear();
  ckpt::Writer scratch;
  std::size_t kept = 0;
  std::size_t next = 0;
  try {
    for (; next < hot_.size(); ++next) {
      const std::size_t d = hot_[next];
      if (std::binary_search(keep_hot.begin(), keep_hot.end(), d))
        hot_[kept++] = d;
      else
        dehydrate_with(d, scratch);
    }
  } catch (...) {
    hot_.erase(hot_.begin() + static_cast<std::ptrdiff_t>(kept),
               hot_.begin() + static_cast<std::ptrdiff_t>(next));
    throw;
  }
  hot_.resize(kept);
}

void FleetRuntime::inject_faults(std::size_t device,
                                 const DeviceFaultConfig& faults) {
  FEDPOWER_EXPECTS(device < devices_.size());
  hydrate(device);
  if (faults.any()) {
    faults_[device] = faults;
  } else {
    faults_.erase(device);
  }
  devices_[device]->arm(faults);
}

std::vector<std::size_t> FleetRuntime::attacked_devices() const {
  std::vector<std::size_t> out;
  for (std::size_t d = 0; d < devices_.size(); ++d)
    if (attacker(d) != nullptr) out.push_back(d);
  return out;
}

std::vector<fed::FederatedClient*> FleetRuntime::clients() {
  std::vector<fed::FederatedClient*> out;
  out.reserve(devices_.size());
  if (lazy_) {
    // Stable proxies, one per device; the fleet stays cold until the
    // federation actually touches a device.
    if (proxies_.empty()) {
      proxies_.reserve(devices_.size());
      for (std::size_t d = 0; d < devices_.size(); ++d)
        proxies_.emplace_back(this, d);
    }
    for (LazyDeviceClient& proxy : proxies_) out.push_back(&proxy);
    return out;
  }
  for (std::size_t d = 0; d < devices_.size(); ++d)
    out.push_back(&client_view(d));
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
    for (std::size_t d = 0; d < devices_.size(); ++d) hydrate(d);
  if (pool_) {
    pool_->parallel_for(0, devices_.size(), body);
    return;
  }
  for (std::size_t d = 0; d < devices_.size(); ++d) body(d);
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

/// A cold record's fields: the two stream states of a pristine device, or
/// a dehydrated device's blob.
template <class Cold, class Io>
void cold_record(Cold& cold, std::uint8_t kind, Io& io) {
  switch (kind) {
    case kColdPristine:
      io.rng_words(cold.processor_rng);
      io.rng_words(cold.brain_rng);
      return;
    case kColdDehydrated:
      io.vec(cold.blob);
      return;
    default:
      throw ckpt::CorruptSnapshotError(
          "fleet snapshot device record has unknown kind " +
          std::to_string(kind));
  }
}
}  // namespace

template <class Self, class Io>
void FleetRuntime::fields(Self& s, Io& io) {
  // Eager fleets write FLT1, every device inline, byte for byte the
  // historic layout. Lazy fleets write FLT2, one record per device, so
  // snapshotting a 100k-device lazy fleet does not materialize it.
  const bool records = io.tag_of({kFleetTag, kFleetTagLazy}, s.lazy_ ? 1 : 0,
                                 "fleet runtime") == 1;
  io.expect_count(s.devices_.size(), "device(s)");
  for (std::size_t d = 0; d < s.devices_.size(); ++d) {
    std::uint8_t kind = kHotInline;
    if (!Io::kLoad && !s.devices_[d])
      kind = s.cold_[d].blob.empty() ? kColdPristine : kColdDehydrated;
    if (records) io.u8(kind);
    if (kind == kHotInline) {
      if constexpr (Io::kLoad) s.hydrate(d);  // no-op for a hot device
      io.section(*s.devices_[d]);
    } else if constexpr (Io::kLoad) {
      ColdDeviceState cold;
      cold_record(cold, kind, io);
      s.restore_cold(d, cold);
    } else {
      cold_record(s.cold_[d], kind, io);
    }
  }
}

void FleetRuntime::save_state(ckpt::Writer& out) const {
  ckpt::Save io(out);
  fields(*this, io);
}

void FleetRuntime::restore_state(ckpt::Reader& in) {
  // A restore flips devices hot and cold in bulk; one scan at the end
  // (also after a corrupt record threw midway) rebuilds the hot list.
  try {
    ckpt::Load io(in);
    fields(*this, io);
  } catch (...) {
    rescan_hot();
    throw;
  }
  rescan_hot();
}

void FleetRuntime::restore_cold(std::size_t d, ColdDeviceState& read) {
  if (!lazy_) {  // an eager fleet materializes the record on the spot
    if (read.blob.empty())
      devices_[d] = build_device(d, read.processor_rng, read.brain_rng);
    else
      restore_blob(*devices_[d], read.blob);
    return;
  }
  devices_[d].reset();
  ColdDeviceState& cold = cold_[d];
  if (read.blob.empty()) {
    cold.processor_rng = read.processor_rng;
    cold.brain_rng = read.brain_rng;
    cold.blob.clear();
  } else {
    cold.blob = std::move(read.blob);
  }
}

}  // namespace fedpower::runtime

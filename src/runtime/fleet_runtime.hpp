// The parallel fleet runtime: owns a federation's simulated devices and
// runs their local training across a worker pool.
//
// Before this subsystem existed, every fleet consumer (core::run_federated,
// core::run_collab_profit, benchutil::make_fleet, the examples) hand-rolled
// the same device-construction loop and stepped devices one after another
// on a single thread, so an N-device federation cost N× wall-clock even on
// a many-core host. FleetRuntime centralizes both:
//
//   * construction — one canonical RNG split order (per device: processor
//     stream first, controller/brain stream second), shared by the runtime
//     and make_hardware, so every consumer builds bit-identical fleets;
//   * execution — run_local_round() trains every device's steps_per_round
//     local steps concurrently, one device = one task, with a barrier
//     before control returns to the aggregation layer.
//
// Lazy fleets (FleetOptions::lazy): at 100k+ devices with C-fraction
// sampling, instantiating every processor + controller up front wastes
// gigabytes on devices that may never be drawn. A lazy runtime keeps
// sampled-out devices as compact cold records — the two RNG stream states
// the canonical construction would have dealt them (the workload position
// is implicit in the processor stream), or, once a device has trained, a
// serialized state blob — and hydrates a device into real objects the
// first time something touches it. Hydration happens on serial paths only
// (the federation's broadcast loop precedes parallel training), construction
// order stays canonical, and a hydrated device is bit-identical to one
// built eagerly, so laziness never changes results. dehydrate_inactive()
// returns devices to blob form between rounds, bounding resident memory by
// the working set instead of the fleet: core::run_federated calls it with
// an empty keep set as each round starts, so only one round's devices are
// hot at once. A dehydrated device's objects are kept as a spare, and the
// next hydration resets them to its own initial state instead of
// constructing new ones (DESIGN.md §11).
//
// Determinism (DESIGN.md §7): each device owns its processor, workload,
// controller and split RNG; no state is shared between devices inside a
// round, so the thread schedule cannot influence results. num_threads = 1
// skips the pool entirely and runs the exact serial code path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/controller.hpp"
#include "fed/byzantine.hpp"
#include "fed/federation.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/application.hpp"
#include "sim/processor.hpp"
#include "sim/workload.hpp"
#include "util/executor.hpp"
#include "util/rng.hpp"

namespace fedpower::runtime {

/// One device's simulated hardware plus the RNG stream reserved for
/// whatever decision-making "brain" is mounted on it (a PowerController, a
/// tabular baseline client, ...). The split order — processor first, brain
/// second — is the repo-wide canonical order; keeping it here is what lets
/// neural and baseline fleets share one construction loop without
/// perturbing each other's random streams.
struct DeviceHardware {
  std::unique_ptr<sim::Processor> processor;
  std::unique_ptr<sim::Workload> workload;
  util::Rng brain_rng{0};
};

/// Builds one processor + RandomWorkload per entry of device_apps, drawing
/// per-device streams from root in the canonical order.
std::vector<DeviceHardware> make_hardware(
    const sim::ProcessorConfig& processor_config,
    const std::vector<std::vector<sim::AppProfile>>& device_apps,
    util::Rng& root);

/// Everything that can go wrong with one device (DESIGN.md §10): a
/// compromised uplink (fed::ClientFaultConfig) and/or degraded hardware
/// (sim::HardwareFaultConfig). Reward poisoning lives in ControllerConfig
/// (it corrupts the learning loop itself, not the device's plumbing).
struct DeviceFaultConfig {
  fed::ClientFaultConfig upload{};
  sim::HardwareFaultConfig hardware{};

  bool any() const noexcept {
    return upload.attack != fed::UploadAttack::kNone || hardware.any();
  }
};

/// Execution options for a FleetRuntime. num_threads: 1 = serial (no
/// pool), 0 = one worker per hardware thread, else taken literally. lazy:
/// defer device construction until first touch (see the file header).
struct FleetOptions {
  std::size_t num_threads = 1;
  bool lazy = false;
};

class FleetRuntime;

/// Stable fed::FederatedClient facade over one (possibly cold) device of a
/// lazy fleet. The federation holds these pointers for the whole run; the
/// proxy hydrates its device on first use and then forwards to the real
/// client view (the controller, or its ByzantineClient wrapper when an
/// upload attack is armed). Hydration is not thread-safe — the federation's
/// serial broadcast loop touches every participant before parallel
/// training starts, which is what makes the lazy path schedule-safe.
class LazyDeviceClient final : public fed::FederatedClient {
 public:
  LazyDeviceClient(FleetRuntime* fleet, std::size_t device) noexcept
      : fleet_(fleet), device_(device) {}

  void receive_global(std::span<const double> params) override;
  std::vector<double> local_parameters() const override;
  void copy_local_parameters_to(std::vector<double>& out) const override;
  void run_local_round() override;
  std::size_t local_sample_count() const override;

  std::size_t device() const noexcept { return device_; }

 private:
  fed::FederatedClient& resolve() const;

  FleetRuntime* fleet_;
  std::size_t device_;
};

class FleetRuntime {
 public:
  /// Builds one neural device (processor + workload + PowerController) per
  /// entry of device_apps. configs may hold one entry (applied to every
  /// device) or one per device. In lazy mode construction only records
  /// each device's RNG stream states; devices materialize on first touch.
  FleetRuntime(const std::vector<core::ControllerConfig>& configs,
               const sim::ProcessorConfig& processor_config,
               const std::vector<std::vector<sim::AppProfile>>& device_apps,
               std::uint64_t seed, const FleetOptions& options);

  /// Legacy signature: FleetOptions{num_threads} with eager construction.
  FleetRuntime(const std::vector<core::ControllerConfig>& configs,
               const sim::ProcessorConfig& processor_config,
               const std::vector<std::vector<sim::AppProfile>>& device_apps,
               std::uint64_t seed, std::size_t num_threads = 1);

  // Lazy-fleet client proxies hold a pointer back to the runtime, so the
  // runtime must stay put (benchutil::make_fleet still returns by value:
  // a prvalue return is guaranteed-elided, never moved).
  FleetRuntime(const FleetRuntime&) = delete;
  FleetRuntime& operator=(const FleetRuntime&) = delete;

  std::size_t size() const noexcept { return devices_.size(); }
  std::size_t num_threads() const noexcept {
    return pool_ ? pool_->size() : 1;
  }

  bool lazy() const noexcept { return lazy_; }
  /// True when the device's simulator/controller objects are materialized
  /// (always, for an eager fleet).
  bool hot(std::size_t device) const { return devices_[device] != nullptr; }
  /// Number of materialized devices.
  std::size_t hot_count() const noexcept { return hot_.size(); }
  /// The materialized devices' indices, in no particular order.
  const std::vector<std::size_t>& hot_devices() const noexcept {
    return hot_;
  }

  /// Materializes a cold device: pristine devices are built from their
  /// recorded RNG stream states (bit-identical to eager construction);
  /// previously dehydrated devices are built and their state blob
  /// restored. The objects come from a dehydrated device when one is
  /// spare (reset to the new device's initial state), else they are
  /// constructed. No-op when already hot. Not thread-safe. All-or-nothing:
  /// a blob that fails to restore (truncated, or with bytes left over)
  /// throws ckpt::CorruptSnapshotError and leaves the device cold with its
  /// blob intact.
  void hydrate(std::size_t device);

  /// Serializes a hot device into its compact cold record and keeps its
  /// objects as a spare for the next hydration; a later hydrate() restores
  /// it bit-identically. No-op when the device is already cold. Lazy
  /// fleets only.
  void dehydrate(std::size_t device);

  /// Dehydrates every hot device whose index is not in keep_hot (which
  /// must be sorted ascending). The between-rounds memory bound: an empty
  /// keep_hot before a round's broadcast leaves only that round's devices
  /// hot; the round's participants as keep_hot after it cools whatever
  /// else the round touched. The spares left over from earlier sweeps are
  /// freed first, so the spares never outnumber what this sweep released.
  void dehydrate_inactive(std::span<const std::size_t> keep_hot);

  /// Objects of dehydrated devices waiting to be reused by hydrate().
  /// Always 0 for an eager fleet, and for a fleet with per-device
  /// controller configs (its devices are always constructed).
  std::size_t spare_count() const noexcept { return spares_.size(); }

  /// Hydrates on demand in a lazy fleet (serial paths only).
  core::PowerController& controller(std::size_t device) {
    hydrate(device);
    return devices_[device]->controller;
  }
  /// Requires the device to be hot (guaranteed for eager fleets).
  const core::PowerController& controller(std::size_t device) const {
    FEDPOWER_EXPECTS(hot(device));
    return devices_[device]->controller;
  }
  sim::Processor& processor(std::size_t device) {
    hydrate(device);
    return devices_[device]->processor;
  }

  /// Arms fault/attack models on one device: hardware faults go straight
  /// to the processor; an upload attack wraps the device's federated-client
  /// view in a fed::ByzantineClient (visible in subsequent clients()
  /// calls). Call before handing clients() to a federation. Hydrates the
  /// device; the fault config is re-applied across dehydrate/hydrate
  /// cycles (configuration, not state). A config that is not any() clears
  /// the device's faults.
  void inject_faults(std::size_t device, const DeviceFaultConfig& faults);

  /// The device's uplink attacker, or nullptr when the device is honest
  /// (or cold — attackers materialize with their device).
  const fed::ByzantineClient* attacker(std::size_t device) const {
    return hot(device) && devices_[device]->attacker
               ? &*devices_[device]->attacker
               : nullptr;
  }

  /// Devices with an armed upload attack, in index order.
  std::vector<std::size_t> attacked_devices() const;

  /// The controllers as federated clients, index-aligned with the devices.
  /// Devices with an armed upload attack are represented by their
  /// ByzantineClient wrapper. A lazy fleet returns stable LazyDeviceClient
  /// proxies instead, so handing a 100k-device fleet to a federation does
  /// not materialize it.
  std::vector<fed::FederatedClient*> clients();

  /// Runs every device's local round (steps_per_round training steps)
  /// concurrently; returns after all devices finished (barrier). Hydrates
  /// the whole fleet first: this is a whole-fleet operation by contract.
  void run_local_round();

  /// Runs body(device) for every device across the pool (barrier), serially
  /// when num_threads is 1. Bodies must touch only their device's state.
  /// Hydrates the whole fleet first (serially, in index order).
  void for_each_device(const std::function<void(std::size_t)>& body);

  /// Executor handle for the aggregation layers (FederatedAveraging and
  /// its committer). Empty when the runtime is serial, which makes those
  /// layers fall back to their plain loops.
  util::ParallelFor executor();

  /// Serializes the whole fleet in device order. Eager fleets write the
  /// historic FLT1 layout (every device's processor, controller and — when
  /// armed — uplink-attacker state), byte-identical to previous releases.
  /// Lazy fleets write FLT2: one record per device tagged cold-pristine
  /// (the two RNG stream states), hot (FLT1-style inline state) or
  /// dehydrated (the state blob) — cold devices are saved without being
  /// materialized. Fault configs are configuration, not state: the
  /// restoring fleet must have the same faults injected. Thread count is
  /// NOT part of the state: execution is bit-identical across pool sizes
  /// (DESIGN.md §7), so a snapshot taken at 4 threads restores into a
  /// serial runtime and vice versa; likewise either format restores into
  /// either an eager or a lazy fleet of the same shape.
  void save_state(ckpt::Writer& out) const;

  /// Restores a FLT1 or FLT2 snapshot into a fleet built from the same
  /// configs/apps/seed shape; throws StateMismatchError when the device
  /// count differs. Restoring FLT2 cold records into a lazy fleet keeps
  /// them cold; into an eager fleet they are materialized on the spot.
  void restore_state(ckpt::Reader& in);

 private:
  friend class LazyDeviceClient;

  /// sim::RandomWorkload's draw over an app list the fleet interns, so a
  /// device holds a pointer to its list instead of a copy, and binding a
  /// recycled device to another list copies nothing.
  class InternedWorkload final : public sim::Workload {
   public:
    void bind(const std::vector<sim::AppProfile>& apps) noexcept {
      apps_ = &apps;
    }
    const sim::AppProfile& next(util::Rng& rng) override {
      return (*apps_)[rng.uniform_index(apps_->size())];
    }
    const std::vector<sim::AppProfile>& apps() const noexcept override {
      return *apps_;
    }

   private:
    const std::vector<sim::AppProfile>* apps_ = nullptr;
  };

  /// What a device is built from besides the fleet-wide configs.
  struct DeviceRecipe {
    const std::vector<sim::AppProfile>& apps;
    const std::array<std::uint64_t, 4>& processor_rng;
    const std::array<std::uint64_t, 4>& brain_rng;
    const DeviceFaultConfig& faults;
  };

  /// One materialized device, in one allocation. Members are declared in
  /// construction order, so destruction mirrors the dependency chain: the
  /// attacker wraps the controller, the controller drives the processor,
  /// the processor reads the workload.
  struct HotDevice {
    HotDevice(const sim::ProcessorConfig& processor_config,
              const core::ControllerConfig& config,
              const DeviceRecipe& recipe);

    /// Puts the device a recipe builds into these objects: the state the
    /// constructor leaves, with the storage of every buffer kept. Only for
    /// objects built with the same configs.
    void reset(const DeviceRecipe& recipe);
    /// Binds the app list and arms the faults: the part of reset() the
    /// constructor shares (its processor and controller are constructed
    /// reset).
    void attach(const DeviceRecipe& recipe);
    /// Arms (or, for a config that is not any(), clears) the device's
    /// hardware faults and upload attacker.
    void arm(const DeviceFaultConfig& faults);
    /// The device's inline state: processor, controller, then the
    /// attacker's when armed (clean devices keep the attack-free bytes).
    void save_state(ckpt::Writer& out) const;
    void restore_state(ckpt::Reader& in);
    template <class Self, class Io> static void fields(Self& s, Io& io);

    InternedWorkload workload;  // lint: ckpt-skip(the app list: construction recipe, not state)
    sim::Processor processor;
    core::PowerController controller;
    std::optional<fed::ByzantineClient> attacker;  ///< armed upload attack
  };

  /// Compact stand-in for a not-materialized device. A pristine device
  /// (never hydrated) is fully determined by the two RNG stream states the
  /// canonical construction order dealt it; a dehydrated device carries
  /// its serialized state instead (blob non-empty).
  struct ColdDeviceState {
    std::array<std::uint64_t, 4> processor_rng{};
    std::array<std::uint64_t, 4> brain_rng{};
    std::vector<std::uint8_t> blob;
  };

  /// Fills app_sets_/app_set_of_: one entry per bit-for-bit distinct list.
  void intern_app_sets(
      const std::vector<std::vector<sim::AppProfile>>& device_apps);
  /// Builds device d's objects from the given RNG stream states and
  /// re-applies its recorded fault config, reusing a spare when there is
  /// one. Does not install them.
  std::unique_ptr<HotDevice> build_device(
      std::size_t d, const std::array<std::uint64_t, 4>& processor_rng,
      const std::array<std::uint64_t, 4>& brain_rng);
  /// Keeps a dehydrated device's objects for build_device() when every
  /// device shares one controller config; frees them otherwise.
  void recycle(std::unique_ptr<HotDevice> device);
  /// Restores a dehydrated device's state blob into device; throws
  /// ckpt::CorruptSnapshotError unless the blob is consumed exactly.
  static void restore_blob(HotDevice& device,
                           std::span<const std::uint8_t> blob);
  /// dehydrate() serializing through a caller-owned scratch writer, so a
  /// sweep over many devices reuses one buffer. Leaves hot_ to the caller.
  void dehydrate_with(std::size_t device, ckpt::Writer& scratch);
  /// Rebuilds hot_ from devices_ in one scan.
  void rescan_hot();
  template <class Self, class Io> static void fields(Self& s, Io& io);
  /// Puts a cold record read from a snapshot in place of device d: kept
  /// cold by a lazy fleet, materialized by an eager one.
  void restore_cold(std::size_t d, ColdDeviceState& read);
  /// The device's federated-client view (attacker wrapper when armed).
  fed::FederatedClient& client_view(std::size_t d) {
    HotDevice& device = *devices_[d];
    return device.attacker
               ? static_cast<fed::FederatedClient&>(*device.attacker)
               : device.controller;
  }

  /// Construction recipe, retained to materialize cold devices.
  /// lint: ckpt-skip(construction recipe, fixed for the run)
  std::vector<core::ControllerConfig> configs_;
  sim::ProcessorConfig processor_config_;  // lint: ckpt-skip(construction recipe, fixed for the run)
  /// The distinct app lists; devices with bit-identical lists share one.
  /// lint: ckpt-skip(construction recipe, fixed for the run)
  std::vector<std::vector<sim::AppProfile>> app_sets_;
  /// Per device: its list's index in app_sets_.
  /// lint: ckpt-skip(construction recipe, fixed for the run)
  std::vector<std::uint32_t> app_set_of_;
  bool lazy_ = false;

  std::vector<std::unique_ptr<HotDevice>> devices_;  ///< null = cold device
  std::vector<ColdDeviceState> cold_;                ///< lazy fleets only
  /// Indices of the non-null devices_, so sweeps cost O(hot), not
  /// O(fleet). lint: ckpt-skip(derived from devices_; restore_state rescans it)
  std::vector<std::size_t> hot_;
  /// Objects of dehydrated devices, reset and reused by build_device().
  /// lint: ckpt-skip(recycled storage: no device's state lives here)
  std::vector<std::unique_ptr<HotDevice>> spares_;
  /// Injected fault configs, only for devices whose config is any().
  /// lint: ckpt-skip(construction recipe, fixed for the run)
  std::map<std::size_t, DeviceFaultConfig> faults_;
  /// Lazy only; built once at full size, so proxy addresses are stable.
  /// lint: ckpt-skip(stateless forwarding proxies; rebuilt on hydration)
  std::vector<LazyDeviceClient> proxies_;
  /// Null when num_threads == 1. lint: ckpt-skip(thread pool handle; rounds are width-invariant)
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace fedpower::runtime

// Deliberately broken fixture: the reset half of L8-ckpt-coverage must flag
// `streak_` — it is checkpointed, but reset() (and clear_history(), which
// reset() calls) never puts it back, so an object reset for reuse would
// carry its last owner's streak over. `total_` is reset through the helper,
// `scratch_` is not state (ckpt-skip) and `weights_` is left on purpose
// (reset-ok): neither of those is a finding.
#include <cstdint>
#include <vector>

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

namespace fedpower::ckpt_fixture {

class RecycledCounter {
 public:
  void save_state(::ckpt::Writer& out) const {
    out.u64(total_);
    out.u64(streak_);
    out.vec_f64(history_);
    out.vec_f64(weights_);
  }

  void restore_state(::ckpt::Reader& in) {
    total_ = in.u64();
    streak_ = in.u64();
    history_ = in.vec_f64();
    weights_ = in.vec_f64();
  }

  void reset() {
    clear_history();
    scratch_.clear();
  }

  void step() {
    ++streak_;
    ++total_;
    history_.push_back(static_cast<double>(total_));
  }

 private:
  void clear_history() {
    history_.clear();
    total_ = 0;
  }

  std::uint64_t total_ = 0;
  std::uint64_t streak_ = 0;
  std::vector<double> history_;
  std::vector<double> weights_;  // lint: reset-ok(overwritten before any read)
  std::vector<double> scratch_;  // lint: ckpt-skip(rebuilt lazily by step)
};

}  // namespace fedpower::ckpt_fixture

// Deliberately broken fixture: L8-ckpt-coverage must flag `cursor_` — the
// class's field list (its one declaration of save_state and restore_state)
// omits it, so a resume would silently reset it. A field list counts as
// both directions, and nothing it calls is followed.
#include <cstdint>
#include <vector>

namespace fedpower::ckpt_fixture {

class ListedCounter {
 public:
  void step() {
    ++cursor_;
    ++total_;
    history_.push_back(static_cast<double>(total_));
  }

 private:
  template <class Self, class Io> static void fields(Self& s, Io& io);

  std::uint64_t total_ = 0;
  std::vector<double> history_;
  std::uint64_t cursor_ = 0;
};

template <class Self, class Io>
void ListedCounter::fields(Self& s, Io& io) {
  io.u64(s.total_);
  io.vec(s.history_);
}

FEDPOWER_CKPT_FIELDS(ListedCounter)

}  // namespace fedpower::ckpt_fixture

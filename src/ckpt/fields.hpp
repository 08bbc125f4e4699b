// Field lists: one declaration per snapshot section, run both ways
// (DESIGN.md §9).
//
// A checkpointed class declares its state once, in byte order, as
//
//   template <class Self, class Io> static void fields(Self& s, Io& io);
//
// and FEDPOWER_CKPT_FIELDS(Class) defines Class::save_state and
// Class::restore_state from it: Save runs the list over a const object and
// writes each field, Load runs it over the object and reads each field back
// into place, so the two directions cannot drift apart. Both adapters are
// inline wrappers over Writer/Reader: no virtual calls, no std::function.
//
// Checks live in the list too. expect_count() and expect_flag() write the
// object's value on save and, on load, throw StateMismatchError when the
// snapshot's differs; check() throws StateMismatchError on load only. Each
// error names the component the section's tag() named. A list that must act
// on one side only (grow storage before reading into it, say) tests
// Io::kLoad.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "util/rng.hpp"

namespace fedpower::ckpt {

/// Writes the four 64-bit words of the xoshiro256++ state.
inline void save_rng(Writer& out, const util::Rng& rng) {
  for (const std::uint64_t word : rng.state()) out.u64(word);
}

/// Restores an Rng stream to exactly where it was serialized. An all-zero
/// state (possible only in a forged snapshot — the generator can never
/// reach it) is rejected as corruption rather than tripping the assert in
/// Rng::set_state.
inline void restore_rng(Reader& in, util::Rng& rng) {
  std::array<std::uint64_t, 4> state{};
  for (std::uint64_t& word : state) word = in.u64();
  if (state == std::array<std::uint64_t, 4>{})
    throw CorruptSnapshotError("RNG snapshot holds the all-zero state");
  rng.set_state(state);
}

class Save {
 public:
  static constexpr bool kLoad = false;
  explicit Save(Writer& writer) noexcept : out(writer) {}

  void tag(const Tag& tag, const char* /*component*/) { write_tag(out, tag); }
  /// A section with several layouts: writes tags[layout], returns layout.
  std::size_t tag_of(std::initializer_list<Tag> tags, std::size_t layout,
                     const char* /*component*/) {
    write_tag(out, tags.begin()[layout]);
    return layout;
  }

  template <class... T>
  void u8(const T&... v) { (out.u8(static_cast<std::uint8_t>(v)), ...); }
  template <class... T>
  void u64(const T&... v) { (out.u64(static_cast<std::uint64_t>(v)), ...); }
  template <class... T>
  void f64(const T&... v) { (out.f64(v), ...); }
  void str(const std::string& v) { out.str(v); }
  /// Length-prefixed vectors, or spans of their elements.
  template <class... V>
  void vec(V&&... v) { (one(std::forward<V>(v)), ...); }
  void rng(const util::Rng& rng) { save_rng(out, rng); }
  void rng_words(const std::array<std::uint64_t, 4>& words) {
    for (const std::uint64_t word : words) out.u64(word);
  }
  template <class T>
  void section(const T& component) { component.save_state(out); }

  void expect_count(std::size_t n, const char* /*what*/) { out.u64(n); }
  void expect_flag(bool flag, const char* /*what*/) { out.u8(flag ? 1 : 0); }
  void check(bool /*ok*/, const char* /*what*/) {}

  /// A presence byte, then the value's fields when it is engaged.
  template <class T, class F>
  void optional(const std::optional<T>& value, F&& fields) {
    out.u8(value ? 1 : 0);
    if (value) fields(*value);
  }
  /// A count, then each element's fields.
  template <class C, class F>
  void list(const C& items, F&& fields) {
    out.u64(items.size());
    for (const auto& item : items) fields(item);
  }

  Writer& out;

 private:
  void one(const std::vector<double>& v) { out.vec_f64(v); }
  void one(const std::vector<std::uint64_t>& v) { out.vec_u64(v); }
  void one(const std::vector<std::uint8_t>& v) { out.vec_u8(v); }
  void one(std::span<const float> v) { out.vec_f32(v); }
  void one(std::span<const std::uint8_t> v) { out.vec_u8(v); }
};

class Load {
 public:
  static constexpr bool kLoad = true;
  explicit Load(Reader& reader) noexcept : in(reader) {}

  void tag(const Tag& tag, const char* component) {
    component_ = component;
    expect_tag(in, tag, component);
  }
  /// Returns the index of the layout tag the snapshot holds.
  std::size_t tag_of(std::initializer_list<Tag> tags, std::size_t /*layout*/,
                     const char* component) {
    component_ = component;
    return expect_tag_of(in, tags, component);
  }

  template <class... T>
  void u8(T&... v) { ((v = static_cast<T>(in.u8())), ...); }
  template <class... T>
  void u64(T&... v) { ((v = static_cast<T>(in.u64())), ...); }
  template <class... T>
  void f64(T&... v) { ((v = in.f64()), ...); }
  void str(std::string& v) { v = in.str(); }
  /// Vectors take the stored length (a vector of doubles keeps its
  /// storage); a span must match it and is read in place.
  template <class... V>
  void vec(V&&... v) { (one(std::forward<V>(v)), ...); }
  void rng(util::Rng& rng) { restore_rng(in, rng); }
  void rng_words(std::array<std::uint64_t, 4>& words) {
    for (std::uint64_t& word : words) word = in.u64();
    if (words == std::array<std::uint64_t, 4>{})
      throw CorruptSnapshotError(std::string(component_) +
                                 " snapshot holds an all-zero RNG state");
  }
  template <class T>
  void section(T& component) { component.restore_state(in); }

  void expect_count(std::size_t n, const char* what) {
    const std::uint64_t held = in.u64();
    if (held != n)
      throw StateMismatchError(std::string(component_) + " snapshot holds " +
                               std::to_string(held) + " " + what +
                               ", this one has " + std::to_string(n));
  }
  void expect_flag(bool flag, const char* what) {
    if ((in.u8() != 0) != flag)
      throw StateMismatchError(std::string(component_) + " snapshot " + what +
                               " does not match this config");
  }
  void check(bool ok, const char* what) {
    if (!ok)
      throw StateMismatchError(std::string(component_) + " snapshot " + what);
  }

  /// A value whose fields fail to read is not left engaged.
  template <class T, class F>
  void optional(std::optional<T>& value, F&& fields) {
    const std::uint8_t present = in.u8();
    check(present <= 1, "has a presence byte that is neither 0 nor 1");
    value.reset();
    if (present == 0) return;
    try {
      fields(value.emplace());
    } catch (...) {
      value.reset();
      throw;
    }
  }
  /// Resizes items to the count read (reusing their storage), then reads
  /// each element's fields. Every element takes at least one byte, so a
  /// count past the bytes left is corruption, not an allocation request.
  template <class C, class F>
  void list(C& items, F&& fields) {
    const std::uint64_t n = in.u64();
    if (n > in.remaining())
      throw CorruptSnapshotError(std::string(component_) + " snapshot lists " +
                                 std::to_string(n) + " entries in " +
                                 std::to_string(in.remaining()) + " byte(s)");
    items.resize(static_cast<std::size_t>(n));
    for (auto& item : items) fields(item);
  }

  Reader& in;

 private:
  void one(std::vector<double>& v) { in.vec_f64_into(v); }
  void one(std::vector<std::uint64_t>& v) { v = in.vec_u64(); }
  void one(std::vector<std::uint8_t>& v) { v = in.vec_u8(); }
  void one(std::span<float> v) { in.vec_f32_into(v); }
  void one(std::span<std::uint8_t> v) { in.vec_u8_into(v); }

  const char* component_ = "untagged";
};

/// Whether the next section is tagged `tag`, consuming nothing: the fork a
/// restore takes to the read_legacy_<TAG> of a layout it only reads.
inline bool next_tag_is(const Reader& in, const Tag& tag) {
  Reader ahead = in;
  if (ahead.remaining() < tag.size()) return false;
  for (const char c : tag)
    if (ahead.u8() != static_cast<std::uint8_t>(c)) return false;
  return true;
}

}  // namespace fedpower::ckpt

/// Defines Class::save_state and Class::restore_state from Class::fields.
#define FEDPOWER_CKPT_FIELDS(Class)                             \
  void Class::save_state(::fedpower::ckpt::Writer& out) const { \
    ::fedpower::ckpt::Save io(out);                             \
    fields(*this, io);                                          \
  }                                                             \
  void Class::restore_state(::fedpower::ckpt::Reader& in) {     \
    ::fedpower::ckpt::Load io(in);                              \
    fields(*this, io);                                          \
  }

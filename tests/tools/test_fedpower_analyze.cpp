// Unit tests for the declaration-aware contract analyzer (DESIGN.md §8):
// the pass-1 model builder (build_file_model) on nested classes, NSDMIs,
// templated members and out-of-line definitions, and the pass-2 rules
// L8-ckpt-coverage, L9-ckpt-symmetry and L10-shard-ownership plus the
// W1-stale-waiver tree pass, driven through lint_source()/lint_tree().
#include "fedpower_lint/analyze.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fedpower_lint/lint.hpp"
#include "fedpower_lint/scrub.hpp"

namespace fedpower::lint {
namespace {

FileModel model_of(const std::string& path, const std::string& src) {
  return build_file_model(path, scrub(src));
}

const ClassModel* find_class(const FileModel& model,
                             const std::string& qualified) {
  for (const ClassModel& cls : model.classes)
    if (cls.qualified == qualified) return &cls;
  return nullptr;
}

const MemberModel* find_member(const ClassModel& cls,
                               const std::string& name) {
  for (const MemberModel& member : cls.members)
    if (member.name == name) return &member;
  return nullptr;
}

const MethodModel* find_method(const ClassModel& cls,
                               const std::string& name) {
  for (const MethodModel& method : cls.methods)
    if (method.name == name) return &method;
  return nullptr;
}

bool has_rule_at(const std::vector<Finding>& fs, const std::string& rule,
                 std::size_t line) {
  return std::any_of(fs.begin(), fs.end(), [&](const Finding& f) {
    return f.rule == rule && f.line == line;
  });
}

std::size_t count_rule(const std::vector<Finding>& fs,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(fs.begin(), fs.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// ---------------------------------------------------------------------------
// Pass 1: model builder
// ---------------------------------------------------------------------------

TEST(AnalyzeModel, TemplatedMembersKeepNameAndType) {
  const auto m = model_of("src/core/box.hpp",
                          "#pragma once\n"
                          "struct Box {\n"
                          "  std::vector<std::unique_ptr<int>> items_;\n"
                          "  std::array<double, 4> norms_{};\n"
                          "  std::map<std::string, int> index_;\n"
                          "  std::atomic<bool> stopped_{false};\n"
                          "};\n");
  const ClassModel* box = find_class(m, "Box");
  ASSERT_NE(box, nullptr);
  EXPECT_EQ(box->members.size(), 4u);
  ASSERT_NE(find_member(*box, "items_"), nullptr);
  ASSERT_NE(find_member(*box, "norms_"), nullptr);
  ASSERT_NE(find_member(*box, "index_"), nullptr);
  const MemberModel* stopped = find_member(*box, "stopped_");
  ASSERT_NE(stopped, nullptr);
  EXPECT_NE(stopped->type.find("atomic"), std::string::npos);
  EXPECT_EQ(stopped->line, 5u);  // 0-based
}

TEST(AnalyzeModel, NestedClassesGetQualifiedNamesAndOwnMembers) {
  const auto m = model_of("src/core/outer.hpp",
                          "#pragma once\n"
                          "class Outer {\n"
                          " public:\n"
                          "  struct Inner {\n"
                          "    int depth = 0;\n"
                          "    void poke() { ++depth; }\n"
                          "  };\n"
                          "  Inner inner_;\n"
                          "  int count_ = 0;\n"
                          "};\n");
  const ClassModel* inner = find_class(m, "Outer::Inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->members.size(), 1u);
  EXPECT_NE(find_member(*inner, "depth"), nullptr);
  const MethodModel* poke = find_method(*inner, "poke");
  ASSERT_NE(poke, nullptr);
  EXPECT_TRUE(poke->has_body);

  const ClassModel* outer = find_class(m, "Outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->members.size(), 2u);
  EXPECT_NE(find_member(*outer, "inner_"), nullptr);
  EXPECT_NE(find_member(*outer, "count_"), nullptr);
}

TEST(AnalyzeModel, CtorInitListAndInClassBodies) {
  const auto m = model_of("src/core/gizmo.hpp",
                          "#pragma once\n"
                          "class Gizmo {\n"
                          " public:\n"
                          "  explicit Gizmo(int n) : total_(n), tags_{1, 2} "
                          "{ ping(); }\n"
                          "  void ping();\n"
                          " private:\n"
                          "  int total_;\n"
                          "  std::vector<int> tags_;\n"
                          "};\n");
  const ClassModel* gizmo = find_class(m, "Gizmo");
  ASSERT_NE(gizmo, nullptr);
  const MethodModel* ctor = find_method(*gizmo, "Gizmo");
  ASSERT_NE(ctor, nullptr);
  EXPECT_TRUE(ctor->is_ctor);
  EXPECT_TRUE(ctor->has_body);
  const MethodModel* ping = find_method(*gizmo, "ping");
  ASSERT_NE(ping, nullptr);
  EXPECT_FALSE(ping->has_body);
  EXPECT_EQ(gizmo->members.size(), 2u);
}

TEST(AnalyzeModel, TemplateClassAndTemplateMethod) {
  const auto m = model_of("src/core/slot.hpp",
                          "#pragma once\n"
                          "template <typename T>\n"
                          "class Slot {\n"
                          "  T value_{};\n"
                          "  template <typename U>\n"
                          "  void set(U u) { value_ = u; }\n"
                          "};\n");
  const ClassModel* slot = find_class(m, "Slot");
  ASSERT_NE(slot, nullptr);
  EXPECT_TRUE(slot->templated);
  EXPECT_NE(find_member(*slot, "value_"), nullptr);
  const MethodModel* set = find_method(*slot, "set");
  ASSERT_NE(set, nullptr);
  EXPECT_TRUE(set->has_body);
}

TEST(AnalyzeModel, OutOfLineDefinitionsRecordClassAndParams) {
  const auto m = model_of(
      "src/core/gadget.cpp",
      "#include \"gadget.hpp\"\n"
      "namespace demo {\n"
      "void Gadget::save_state(ckpt::Writer& out) const { out.u64(n_); }\n"
      "Gadget::~Gadget() { release(); }\n"
      "}  // namespace demo\n");
  ASSERT_EQ(m.out_of_line.size(), 2u);
  EXPECT_EQ(m.out_of_line[0].class_name, "demo::Gadget");
  EXPECT_EQ(m.out_of_line[0].method.name, "save_state");
  EXPECT_TRUE(m.out_of_line[0].method.has_body);
  ASSERT_EQ(m.out_of_line[0].method.param_types.size(), 1u);
  EXPECT_NE(m.out_of_line[0].method.param_types[0].find("Writer"),
            std::string::npos);
  EXPECT_EQ(m.out_of_line[0].method.param_names[0], "out");
  EXPECT_TRUE(m.out_of_line[1].method.is_dtor);
}

TEST(AnalyzeModel, StaticMembersAreMarked) {
  const auto m = model_of("src/core/k.hpp",
                          "#pragma once\n"
                          "struct K {\n"
                          "  static constexpr int kMax = 4;\n"
                          "  int live_ = 0;\n"
                          "};\n");
  const ClassModel* k = find_class(m, "K");
  ASSERT_NE(k, nullptr);
  const MemberModel* max = find_member(*k, "kMax");
  ASSERT_NE(max, nullptr);
  EXPECT_TRUE(max->is_static);
  const MemberModel* live = find_member(*k, "live_");
  ASSERT_NE(live, nullptr);
  EXPECT_FALSE(live->is_static);
}

// ---------------------------------------------------------------------------
// L8: checkpoint coverage
// ---------------------------------------------------------------------------

TEST(AnalyzeCkptCoverage, CoveredClassIsClean) {
  const std::string src =
      "class A {\n"
      " public:\n"
      "  void save_state(ckpt::Writer& out) const { out.u64(n_); }\n"
      "  void restore_state(ckpt::Reader& in) { n_ = in.u64(); }\n"
      " private:\n"
      "  std::uint64_t n_ = 0;\n"
      "};\n";
  EXPECT_EQ(count_rule(lint_source("src/rl/a.cpp", src), "L8-ckpt-coverage"),
            0u);
}

TEST(AnalyzeCkptCoverage, FlagsMemberMissingFromBothBodies) {
  const std::string src =
      "class A {\n"
      " public:\n"
      "  void save_state(ckpt::Writer& out) const { out.u64(n_); }\n"
      "  void restore_state(ckpt::Reader& in) { n_ = in.u64(); }\n"
      " private:\n"
      "  std::uint64_t n_ = 0;\n"
      "  double x_ = 0.0;\n"
      "};\n";
  const auto fs = lint_source("src/rl/a.cpp", src);
  EXPECT_TRUE(has_rule_at(fs, "L8-ckpt-coverage", 7));
}

TEST(AnalyzeCkptCoverage, FlagsMemberMissingFromRestoreOnly) {
  const std::string src =
      "class A {\n"
      " public:\n"
      "  void save_state(ckpt::Writer& out) const {\n"
      "    out.u64(n_);\n"
      "    out.f64(x_);\n"
      "  }\n"
      "  void restore_state(ckpt::Reader& in) { n_ = in.u64(); }\n"
      " private:\n"
      "  std::uint64_t n_ = 0;\n"
      "  double x_ = 0.0;\n"
      "};\n";
  const auto fs = lint_source("src/rl/a.cpp", src);
  EXPECT_TRUE(has_rule_at(fs, "L8-ckpt-coverage", 10));
  // The restore side is also asymmetric; only coverage is asserted here.
}

TEST(AnalyzeCkptCoverage, CkptSkipWaiverSuppresses) {
  const std::string src =
      "class A {\n"
      " public:\n"
      "  void save_state(ckpt::Writer& out) const { out.u64(n_); }\n"
      "  void restore_state(ckpt::Reader& in) { n_ = in.u64(); }\n"
      " private:\n"
      "  std::uint64_t n_ = 0;\n"
      "  double x_ = 0.0;  // lint: ckpt-skip(scratch, rebuilt per round)\n"
      "};\n";
  EXPECT_EQ(count_rule(lint_source("src/rl/a.cpp", src), "L8-ckpt-coverage"),
            0u);
}

TEST(AnalyzeCkptCoverage, MergesOutOfLineBodies) {
  const std::string src =
      "class B {\n"
      " public:\n"
      "  void save_state(ckpt::Writer& out) const;\n"
      "  void restore_state(ckpt::Reader& in);\n"
      " private:\n"
      "  std::uint32_t v_ = 0;\n"
      "  double lost_ = 0.0;\n"
      "};\n"
      "void B::save_state(ckpt::Writer& out) const { out.u32(v_); }\n"
      "void B::restore_state(ckpt::Reader& in) { v_ = in.u32(); }\n";
  const auto fs = lint_source("src/rl/b.cpp", src);
  EXPECT_FALSE(has_rule_at(fs, "L8-ckpt-coverage", 6));
  EXPECT_TRUE(has_rule_at(fs, "L8-ckpt-coverage", 7));
}

// A field list (ckpt/fields.hpp) is the class's one declaration of both
// directions; its out-of-line template definition binds to the class.
const char* kFieldsClass =
    "namespace fedpower::rl {\n"
    "class F {\n"
    " public:\n"
    "  void save_state(ckpt::Writer& out) const;\n"
    "  void restore_state(ckpt::Reader& in);\n"
    "  void reset();\n"
    " private:\n"
    "  template <class Self, class Io> static void fields(Self& s, Io& io);\n"
    "  template <class Io> void helper(Io& io) { io.u64(lost_); }\n"
    "  std::uint64_t n_ = 0;\n"
    "  std::vector<double> v_;\n"
    "  std::uint64_t lost_ = 0;\n"
    "};\n"
    "template <class Self, class Io>\n"
    "void F::fields(Self& s, Io& io) {\n"
    "  io.u64(s.n_);\n"
    "  io.vec(s.v_);\n"
    "  s.helper(io);\n"
    "}\n"
    "FEDPOWER_CKPT_FIELDS(F)\n"
    "void F::reset() { n_ = 0; v_.clear(); }\n"
    "}  // namespace fedpower::rl\n";

TEST(AnalyzeCkptCoverage, FieldListCountsAsSaveAndRestore) {
  const FileModel model = model_of("src/rl/f.cpp", kFieldsClass);
  ASSERT_EQ(model.out_of_line.size(), 2u);
  EXPECT_EQ(model.out_of_line[0].class_name, "fedpower::rl::F");
  EXPECT_EQ(model.out_of_line[0].method.name, "fields");
  // The macro line does not swallow the definition after it.
  EXPECT_EQ(model.out_of_line[1].method.name, "reset");
  const auto fs = lint_source("src/rl/f.cpp", kFieldsClass);
  EXPECT_FALSE(has_rule_at(fs, "L8-ckpt-coverage", 10));
  EXPECT_FALSE(has_rule_at(fs, "L8-ckpt-coverage", 11));
}

TEST(AnalyzeCkptCoverage, FieldListFollowsNoCalls) {
  // lost_ is written only by a helper the list calls: still flagged, once
  // for the list and once for reset().
  const auto fs = lint_source("src/rl/f.cpp", kFieldsClass);
  EXPECT_TRUE(has_rule_at(fs, "L8-ckpt-coverage", 12));
  EXPECT_EQ(count_rule(fs, "L8-ckpt-coverage"), 2u);
}

TEST(AnalyzeCkptCoverage, ResetMustCoverEveryStateMember) {
  const std::string src =
      "class R {\n"
      " public:\n"
      "  void save_state(ckpt::Writer& out) const {\n"
      "    out.u64(n_);\n"
      "    out.f64(x_);\n"
      "  }\n"
      "  void restore_state(ckpt::Reader& in) {\n"
      "    n_ = in.u64();\n"
      "    x_ = in.f64();\n"
      "  }\n"
      "  void reset() { n_ = 0; }\n"
      " private:\n"
      "  std::uint64_t n_ = 0;\n"
      "  double x_ = 0.0;\n"
      "};\n";
  const auto fs = lint_source("src/rl/r.cpp", src);
  EXPECT_FALSE(has_rule_at(fs, "L8-ckpt-coverage", 13));
  EXPECT_TRUE(has_rule_at(fs, "L8-ckpt-coverage", 14));
}

TEST(AnalyzeCkptCoverage, ResetCoverageFollowsTheClassesOwnCalls) {
  // x_ is reset in a helper that reset() calls, y_ only in a method it
  // never calls; w_ is waived.
  const std::string src =
      "class R {\n"
      " public:\n"
      "  void save_state(ckpt::Writer& out) const;\n"
      "  void restore_state(ckpt::Reader& in);\n"
      "  void reset();\n"
      " private:\n"
      "  void forget();\n"
      "  void unused();\n"
      "  std::optional<double> n_;\n"
      "  double x_ = 0.0;\n"
      "  double y_ = 0.0;\n"
      "  double w_ = 0.0;  // lint: reset-ok(overwritten before any read)\n"
      "};\n"
      "void R::save_state(ckpt::Writer& out) const {\n"
      "  out.f64(*n_);\n"
      "  out.f64(x_);\n"
      "  out.f64(y_);\n"
      "  out.f64(w_);\n"
      "}\n"
      "void R::restore_state(ckpt::Reader& in) {\n"
      "  n_ = in.f64();\n"
      "  x_ = in.f64();\n"
      "  y_ = in.f64();\n"
      "  w_ = in.f64();\n"
      "}\n"
      "void R::reset() {\n"
      "  n_.reset();\n"
      "  forget();\n"
      "}\n"
      "void R::forget() { x_ = 0.0; }\n"
      "void R::unused() { y_ = 0.0; }\n";
  const auto fs = lint_source("src/rl/r.cpp", src);
  EXPECT_FALSE(has_rule_at(fs, "L8-ckpt-coverage", 9));
  EXPECT_FALSE(has_rule_at(fs, "L8-ckpt-coverage", 10));
  EXPECT_TRUE(has_rule_at(fs, "L8-ckpt-coverage", 11));
  EXPECT_FALSE(has_rule_at(fs, "L8-ckpt-coverage", 12));
}

// Regression: a same-named class in a namespace-free bench/test file must
// not donate its save/restore bodies to the namespaced src class (that used
// to mask genuine coverage gaps in multi-directory scans).
TEST(AnalyzeCkptCoverage, SameNameInOtherNamespaceDoesNotMask) {
  const Scrubbed decl_scrub = scrub(
      "namespace fedpower::fed {\n"
      "class Wrap {\n"
      " public:\n"
      "  void save_state(ckpt::Writer& out) const;\n"
      "  void restore_state(ckpt::Reader& in);\n"
      " private:\n"
      "  Client* inner_;\n"
      "  std::uint64_t n_ = 0;\n"
      "};\n"
      "void Wrap::save_state(ckpt::Writer& out) const { out.u64(n_); }\n"
      "void Wrap::restore_state(ckpt::Reader& in) { n_ = in.u64(); }\n"
      "}  // namespace fedpower::fed\n");
  const Scrubbed bench_scrub = scrub(
      "class Wrap {\n"
      " public:\n"
      "  void save_state(ckpt::Writer& out) const { out.raw(inner_, 8); }\n"
      "  void restore_state(ckpt::Reader& in) { in.raw(inner_, 8); }\n"
      " private:\n"
      "  char inner_[8];\n"
      "};\n");
  std::vector<FileModel> models;
  models.push_back(build_file_model("src/fed/wrap.hpp", decl_scrub));
  models.push_back(build_file_model("bench/bench_wrap.cpp", bench_scrub));
  WaiverSet decl_waivers(decl_scrub);
  WaiverSet bench_waivers(bench_scrub);
  std::vector<WaiverSet*> waivers{&decl_waivers, &bench_waivers};
  const auto fs = analyze(models, waivers, Options{});
  EXPECT_TRUE(has_rule_at(fs, "L8-ckpt-coverage", 7));  // inner_ uncovered
}

TEST(AnalyzeCkptCoverage, ClassesOutsideContractDirsAreIgnored) {
  const std::string src =
      "class A {\n"
      " public:\n"
      "  void save_state(ckpt::Writer& out) const { out.u64(n_); }\n"
      "  void restore_state(ckpt::Reader& in) { n_ = in.u64(); }\n"
      " private:\n"
      "  std::uint64_t n_ = 0;\n"
      "  double x_ = 0.0;\n"
      "};\n";
  EXPECT_EQ(count_rule(lint_source("tests/a.cpp", src), "L8-ckpt-coverage"),
            0u);
}

// ---------------------------------------------------------------------------
// L9: save/restore symmetry
// ---------------------------------------------------------------------------

TEST(AnalyzeCkptSymmetry, KindSkewIsFlagged) {
  const std::string src =
      "class A {\n"
      " public:\n"
      "  void save_state(ckpt::Writer& out) const {\n"
      "    out.u32(epoch_);\n"
      "    out.f64(temp_);\n"
      "  }\n"
      "  void restore_state(ckpt::Reader& in) {\n"
      "    epoch_ = static_cast<std::uint32_t>(in.u64());\n"
      "    temp_ = in.f64();\n"
      "  }\n"
      " private:\n"
      "  std::uint32_t epoch_ = 0;\n"
      "  double temp_ = 0.0;\n"
      "};\n";
  const auto fs = lint_source("src/rl/a.cpp", src);
  EXPECT_TRUE(has_rule_at(fs, "L9-ckpt-symmetry", 4));
}

TEST(AnalyzeCkptSymmetry, CountSkewIsFlagged) {
  const std::string src =
      "class A {\n"
      " public:\n"
      "  void save_state(ckpt::Writer& out) const {\n"
      "    out.u64(n_);\n"
      "    out.f64(x_);\n"
      "  }\n"
      "  void restore_state(ckpt::Reader& in) {\n"
      "    n_ = in.u64();\n"
      "    x_ = 0.0;\n"
      "  }\n"
      " private:\n"
      "  std::uint64_t n_ = 0;\n"
      "  double x_ = 0.0;\n"
      "};\n";
  const auto fs = lint_source("src/rl/a.cpp", src);
  EXPECT_EQ(count_rule(fs, "L9-ckpt-symmetry"), 1u);
}

TEST(AnalyzeCkptSymmetry, LoopPairedVectorIdiomIsClean) {
  const std::string src =
      "class A {\n"
      " public:\n"
      "  void save_state(ckpt::Writer& out) const {\n"
      "    ckpt::write_tag(out, kTag);\n"
      "    out.u64(items_.size());\n"
      "    for (double v : items_) out.f64(v);\n"
      "    ckpt::save_rng(out, rng_);\n"
      "  }\n"
      "  void restore_state(ckpt::Reader& in) {\n"
      "    ckpt::expect_tag(in, kTag);\n"
      "    items_.resize(in.u64());\n"
      "    for (double& v : items_) v = in.f64();\n"
      "    ckpt::restore_rng(in, rng_);\n"
      "  }\n"
      " private:\n"
      "  static const ckpt::Tag kTag;\n"
      "  std::vector<double> items_;\n"
      "  util::Rng rng_;\n"
      "};\n";
  EXPECT_EQ(count_rule(lint_source("src/rl/a.cpp", src), "L9-ckpt-symmetry"),
            0u);
}

TEST(AnalyzeCkptSymmetry, TagRevisionAndInPlaceReadsPairWithWrites) {
  // expect_tag_of reads the tag write_tag wrote; vec_f32_into/vec_u8_into
  // read what vec_f32/vec_u8 wrote.
  const std::string src =
      "class A {\n"
      " public:\n"
      "  void save_state(ckpt::Writer& out) const {\n"
      "    ckpt::write_tag(out, kTag);\n"
      "    out.vec_f32(xs_);\n"
      "    out.vec_u8(ids_);\n"
      "  }\n"
      "  void restore_state(ckpt::Reader& in) {\n"
      "    (void)ckpt::expect_tag_of(in, {kTag, kOldTag}, \"a\");\n"
      "    in.vec_f32_into(xs_);\n"
      "    in.vec_u8_into(ids_);\n"
      "  }\n"
      " private:\n"
      "  std::vector<float> xs_;\n"
      "  std::vector<std::uint8_t> ids_;\n"
      "};\n";
  EXPECT_EQ(count_rule(lint_source("src/rl/a.cpp", src), "L9-ckpt-symmetry"),
            0u);
}

TEST(AnalyzeCkptSymmetry, InPlaceReadOfTheWrongKindIsFlagged) {
  const std::string src =
      "class A {\n"
      " public:\n"
      "  void save_state(ckpt::Writer& out) const {\n"
      "    out.vec_f32(xs_);\n"
      "  }\n"
      "  void restore_state(ckpt::Reader& in) {\n"
      "    in.vec_u8_into(xs_);\n"
      "  }\n"
      " private:\n"
      "  std::vector<float> xs_;\n"
      "};\n";
  const auto fs = lint_source("src/rl/a.cpp", src);
  EXPECT_TRUE(has_rule_at(fs, "L9-ckpt-symmetry", 4));
}

TEST(AnalyzeCkptSymmetry, LoopDepthSkewIsFlagged) {
  const std::string src =
      "class A {\n"
      " public:\n"
      "  void save_state(ckpt::Writer& out) const {\n"
      "    out.u64(items_.size());\n"
      "    for (double v : items_) out.f64(v);\n"
      "  }\n"
      "  void restore_state(ckpt::Reader& in) {\n"
      "    items_.resize(in.u64());\n"
      "    items_[0] = in.f64();\n"
      "  }\n"
      " private:\n"
      "  std::vector<double> items_;\n"
      "};\n";
  const auto fs = lint_source("src/rl/a.cpp", src);
  EXPECT_EQ(count_rule(fs, "L9-ckpt-symmetry"), 1u);
}

TEST(AnalyzeCkptSymmetry, NestedMemberPairsByReceiver) {
  const std::string src =
      "class A {\n"
      " public:\n"
      "  void save_state(ckpt::Writer& out) const {\n"
      "    opt_.save_state(out);\n"
      "    buf_.save_state(out);\n"
      "  }\n"
      "  void restore_state(ckpt::Reader& in) {\n"
      "    buf_.restore_state(in);\n"
      "    opt_.restore_state(in);\n"
      "  }\n"
      " private:\n"
      "  Opt opt_;\n"
      "  Buf buf_;\n"
      "};\n";
  const auto fs = lint_source("src/rl/a.cpp", src);
  EXPECT_TRUE(has_rule_at(fs, "L9-ckpt-symmetry", 4));
}

TEST(AnalyzeCkptSymmetry, WaiverOnDefinitionLineSuppresses) {
  const std::string src =
      "class A {\n"
      " public:\n"
      "  // lint: ckpt-sym-ok(dual-format reader keeps legacy support)\n"
      "  void save_state(ckpt::Writer& out) const { out.u32(n_); }\n"
      "  void restore_state(ckpt::Reader& in) {\n"
      "    n_ = static_cast<std::uint32_t>(in.u64());\n"
      "  }\n"
      " private:\n"
      "  std::uint32_t n_ = 0;\n"
      "};\n";
  EXPECT_EQ(count_rule(lint_source("src/rl/a.cpp", src), "L9-ckpt-symmetry"),
            0u);
}

TEST(AnalyzeCkptSymmetry, WaiverOnTheLegacyReadForkSuppresses) {
  // A field-list class whose restore forks to a read of a layout it only
  // reads: the waiver sits on the restore-side call where the sequences
  // part.
  const auto source = [](const char* waiver) {
    return std::string(
               "class A {\n"
               " public:\n"
               "  void save_state(ckpt::Writer& out) const {\n"
               "    ckpt::Save io(out);\n"
               "    fields(*this, io);\n"
               "  }\n"
               "  void restore_state(ckpt::Reader& in) {\n"
               "    if (ckpt::next_tag_is(in, kOldTag)) {\n"
               "      read_legacy_old(in);") +
           waiver +
           "\n"
           "      return;\n"
           "    }\n"
           "    ckpt::Load io(in);\n"
           "    fields(*this, io);\n"
           "  }\n"
           " private:\n"
           "  template <class Self, class Io> static void fields(Self& s, "
           "Io& io) { io.u32(s.n_); }\n"
           "  std::uint32_t n_ = 0;\n"
           "};\n";
  };
  EXPECT_EQ(count_rule(lint_source("src/rl/a.cpp",
                                   source("  // lint: ckpt-sym-ok(read only)")),
                       "L9-ckpt-symmetry"),
            0u);
  EXPECT_TRUE(has_rule_at(lint_source("src/rl/a.cpp", source("")),
                          "L9-ckpt-symmetry", 3));
}

// ---------------------------------------------------------------------------
// L10: shard ownership
// ---------------------------------------------------------------------------

const char* kPoolHeader =
    "class Pool {\n"
    " public:\n"
    "  void start() { worker_ = std::thread([this] { worker_main(); }); }\n"
    "  std::size_t drain() {\n"
    "    const std::size_t n = backlog_.size();\n"
    "    return n;\n"
    "  }\n"
    " private:\n"
    "  void worker_main() { backlog_.push_back(1); }\n"
    "  std::thread worker_;\n";

TEST(AnalyzeShardOwnership, UnsafeCrossingMemberIsFlagged) {
  const std::string src =
      std::string(kPoolHeader) + "  std::vector<std::size_t> backlog_;\n};\n";
  const auto fs = lint_source("src/serve/pool.cpp", src);
  EXPECT_TRUE(has_rule_at(fs, "L10-shard-ownership", 11));
}

TEST(AnalyzeShardOwnership, SpscQueueAndAtomicCrossingsAreClean) {
  const std::string src =
      "class Pool {\n"
      " public:\n"
      "  void start() { worker_ = std::thread([this] { worker_main(); }); }\n"
      "  std::size_t drained() const { return done_.load(); }\n"
      "  bool push(int v) { return inbox_.try_push(v); }\n"
      " private:\n"
      "  void worker_main() {\n"
      "    int v;\n"
      "    if (inbox_.try_pop(v)) done_.fetch_add(1);\n"
      "  }\n"
      "  std::thread worker_;\n"
      "  SpscQueue<int> inbox_;\n"
      "  std::atomic<std::size_t> done_{0};\n"
      "};\n";
  EXPECT_EQ(
      count_rule(lint_source("src/serve/pool.cpp", src), "L10-shard-ownership"),
      0u);
}

TEST(AnalyzeShardOwnership, ShardWaiverSuppresses) {
  const std::string src =
      std::string(kPoolHeader) +
      "  // lint: shard-ok(drain only runs after join, at quiescence)\n"
      "  std::vector<std::size_t> backlog_;\n};\n";
  EXPECT_EQ(
      count_rule(lint_source("src/serve/pool.cpp", src), "L10-shard-ownership"),
      0u);
}

TEST(AnalyzeShardOwnership, CtorWritesDoNotCountAsCrossing) {
  const std::string src =
      "class Pool {\n"
      " public:\n"
      "  Pool() { backlog_.reserve(8); }\n"
      "  void start() { worker_ = std::thread([this] { worker_main(); }); }\n"
      " private:\n"
      "  void worker_main() { backlog_.push_back(1); }\n"
      "  std::thread worker_;\n"
      "  std::vector<std::size_t> backlog_;\n"
      "};\n";
  EXPECT_EQ(
      count_rule(lint_source("src/serve/pool.cpp", src), "L10-shard-ownership"),
      0u);
}

TEST(AnalyzeShardOwnership, OutsideServeDirsIsIgnored) {
  const std::string src =
      std::string(kPoolHeader) + "  std::vector<std::size_t> backlog_;\n};\n";
  EXPECT_EQ(
      count_rule(lint_source("src/fed/pool.cpp", src), "L10-shard-ownership"),
      0u);
}

// ---------------------------------------------------------------------------
// W1: stale waivers (tree-level) and severity plumbing
// ---------------------------------------------------------------------------

class StaleWaiverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    namespace fs = std::filesystem;
    // ctest -j runs each case in its own process: a shared directory would
    // let one case's TearDown delete another's tree mid-scan.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::current_path() / ("fedpower_lint_stale_" +
                                 std::string(info->name()) + "_" +
                                 std::to_string(::getpid()));
    fs::create_directories(dir_ / "src" / "fed");
    std::ofstream out(dir_ / "src" / "fed" / "x.cpp");
    out << "// lint: nondet-ok(this waiver excuses nothing)\n"
           "int live() { return 1; }\n"
           "int seeded() { return rand(); }  // lint: nondet-ok(stub)\n";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(StaleWaiverTest, TreeReportsOnlyUnusedWaiverAsWarning) {
  const auto fs = lint_tree(dir_.string(), {"src"});
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "W1-stale-waiver");
  EXPECT_EQ(fs[0].line, 1u);
  EXPECT_EQ(fs[0].severity, Severity::kWarning);
  EXPECT_FALSE(has_errors(fs));
}

TEST_F(StaleWaiverTest, StrictPromotesStaleWaiversToErrors) {
  Options options;
  options.strict_waivers = true;
  const auto fs = lint_tree(dir_.string(), {"src"}, options);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].severity, Severity::kError);
  EXPECT_TRUE(has_errors(fs));
}

TEST(AnalyzeOutput, SarifCarriesRulesLevelsAndLocations) {
  std::vector<Finding> findings = {
      {"src/a.cpp", 3, "L8-ckpt-coverage", "member 'x_' not serialized",
       Severity::kError},
      {"src/b.cpp", 9, "W1-stale-waiver", "waiver unused",
       Severity::kWarning},
  };
  const std::string sarif = to_sarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"fedpower-lint\""), std::string::npos);
  EXPECT_NE(sarif.find("{\"id\": \"L8-ckpt-coverage\"}"), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"warning\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/b.cpp\""), std::string::npos);
}

TEST(AnalyzeOutput, JsonCarriesSeverity) {
  std::vector<Finding> findings = {
      {"src/a.cpp", 1, "W1-stale-waiver", "waiver unused",
       Severity::kWarning}};
  const std::string json = to_json(findings);
  EXPECT_NE(json.find("\"severity\": \"warning\""), std::string::npos);
}

}  // namespace
}  // namespace fedpower::lint

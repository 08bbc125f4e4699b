// Declaration-aware contract analyzer for fedpower-lint (DESIGN.md §8).
//
// The token-stream rules (L1–L7, lint.cpp) catch forbidden *calls*; the two
// load-bearing repo contracts — bit-identical checkpoint/resume and the
// serve subsystem's no-locks-by-partitioning invariant — fail through
// forbidden *omissions*: a data member added but never serialized, a
// Writer/Reader call sequence that skews, shard state touched from the
// wrong thread. Catching those needs declarations, so this layer runs two
// passes on top of the shared scrubbing tokenizer (scrub.hpp):
//
//   pass 1  build_file_model(): a lightweight per-file model — every
//           class/struct with its non-static data members, every method
//           with its parameter list and (when present) body token range,
//           plus out-of-line `Class::method(...) { ... }` definitions.
//           It is a heuristic single-token-lookahead parser, not a C++
//           front end: nested classes, NSDMIs, template members, ctor
//           init lists and `operator` noise are handled; exotic declarators
//           (function pointers, multi-dimensional arrays of members) are
//           conservatively skipped rather than misread.
//
//   pass 2  analyze(): merges the per-file models by class name (headers
//           declare, .cpps define) and runs three rules:
//
//   L8-ckpt-coverage   every non-static data member of a class that
//                      defines save_state must be referenced in BOTH the
//                      save_state and restore_state bodies, or carry a
//                      `// lint: ckpt-skip(reason)` annotation stating why
//                      it is deliberately not state (caches, config,
//                      thread counts — DESIGN.md §9). When such a class
//                      also defines reset(), every member must be
//                      referenced in reset() or in a method of the class
//                      it calls, or carry ckpt-skip, or carry
//                      `// lint: reset-ok(reason)` saying why reset leaves
//                      it: an object reset for reuse (the lazy fleet's
//                      spare devices) must not carry state over.
//   L9-ckpt-symmetry   the ordered sequence of typed ckpt::Writer calls in
//                      save_state must mirror the ckpt::Reader calls in
//                      restore_state by kind and loop depth (u64 pairs
//                      with u64, vec_f64 with vec_f64, write_tag with
//                      expect_tag, save_rng with restore_rng, nested
//                      member save_state with the member's restore_state),
//                      catching type/order skew that decodes as
//                      valid-but-wrong bytes the container CRC cannot see.
//                      Waive on the save_state definition line with
//                      `// lint: ckpt-sym-ok(reason)`.
//   L10-shard-ownership in shard-ownership dirs (src/serve), a data member
//                      touched both by worker-thread methods (the
//                      transitive closure of methods a `std::thread(...)`
//                      construction names) and by orchestrator methods
//                      must be an SpscQueue, std::atomic or const —
//                      anything else crossing the injector/worker boundary
//                      is a data race the partitioning idiom exists to
//                      exclude. Waive on the member with
//                      `// lint: shard-ok(reason)`.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fedpower_lint/lint.hpp"
#include "fedpower_lint/scrub.hpp"

namespace fedpower::lint {

/// One token of the flattened file, with its 0-based source line.
struct SourceToken {
  bool ident = false;
  std::string text;
  std::size_t line = 0;
};

/// A non-static-or-static data member declaration.
struct MemberModel {
  std::string name;
  std::string type;      ///< declaration tokens left of the name, joined
  std::size_t line = 0;  ///< 0-based line of the declarator name
  bool is_static = false;
};

/// A method declaration or definition. Body ranges index FileModel::tokens.
struct MethodModel {
  std::string name;
  std::size_t line = 0;  ///< 0-based line of the method name
  bool has_body = false;
  bool is_ctor = false;
  bool is_dtor = false;
  std::size_t body_begin = 0;  ///< first token inside the body braces
  std::size_t body_end = 0;    ///< one past the last body token
  std::vector<std::string> param_names;
  std::vector<std::string> param_types;  ///< joined tokens, aligned
};

/// A class/struct definition with its direct members and methods. Nested
/// classes appear as their own ClassModel with a qualified name.
struct ClassModel {
  std::string name;       ///< simple name ("ShardedServer")
  std::string qualified;  ///< nesting chain ("ShardedServer::Shard")
  std::size_t line = 0;
  bool templated = false;
  std::vector<MemberModel> members;
  std::vector<MethodModel> methods;
};

/// An out-of-line `Class::method(...) { ... }` definition.
struct OutOfLineMethod {
  std::string class_name;  ///< innermost class on the :: chain
  MethodModel method;
};

/// Pass-1 output for one translation unit.
struct FileModel {
  std::string path;                 ///< normalized repo-relative path
  std::vector<SourceToken> tokens;  ///< flattened scrubbed token stream
  std::vector<ClassModel> classes;
  std::vector<OutOfLineMethod> out_of_line;
};

/// Builds the declaration model from an already-scrubbed file.
[[nodiscard]] FileModel build_file_model(const std::string& path,
                                         const Scrubbed& scrubbed);

/// Pass 2 over a set of file models (typically one scan root). `waivers`
/// is aligned with `models`; rules consume waivers through it so the tree
/// driver can afterwards report the stale ones. Findings are unsorted; the
/// caller merges and sorts.
[[nodiscard]] std::vector<Finding> analyze(
    const std::vector<FileModel>& models, std::vector<WaiverSet*>& waivers,
    const Options& options);

}  // namespace fedpower::lint

// fedpower-lint: repo-specific determinism & safety static analysis.
//
// The reproduction's headline guarantee — bit-identical federated rounds at
// every thread count (DESIGN.md §7) — rests on conventions a compiler never
// checks: all randomness flows through util::Rng streams split in canonical
// order, floating-point aggregation runs in model index order, and nothing
// on a determinism-critical path iterates a hash container. This linter
// turns those conventions into machine-checked rules (DESIGN.md §8):
//
//   L1-nondet          no rand()/srand/std::random_device/time()/getenv/
//                      clock ::now() outside the allowlist
//   L2-unordered-iter  no iteration over std::unordered_{map,set} in
//                      determinism-critical dirs (src/fed, src/nn,
//                      src/runtime, src/core)
//   L3-fp-reduce       no std::accumulate/std::reduce in src/fed —
//                      aggregation uses the documented model-order loops
//   L4-header-guard    every header opens with #pragma once or an
//   L4-using-namespace #ifndef guard; no using namespace at namespace
//                      scope in headers
//   L5-thread-detach   no detached threads and no raw mutex .lock()/
//   L5-raw-mutex-lock  .unlock() (use lock_guard/unique_lock/scoped_lock)
//                      in src/
//   L6-fs-write        no ad-hoc file writing (std::ofstream / fopen /
//                      freopen) in src/ outside the allowlisted writers —
//                      durable state goes through ckpt::write_snapshot_file
//                      so every on-disk artifact is atomic and checksummed
//   L7-raw-syscall     no raw event-loop syscalls (epoll_create/epoll_ctl/
//                      epoll_wait/eventfd/accept4) in src/ outside the
//                      designated event-loop translation units — socket
//                      plumbing stays confined to the transport and the
//                      serve front end
//
// On top of the token-stream rules, the declaration-aware contract analyzer
// (analyze.hpp) adds L8-ckpt-coverage, L9-ckpt-symmetry and
// L10-shard-ownership, and lint_tree() reports waivers that no longer
// suppress anything as W1-stale-waiver (severity "warning" by default,
// "error" under Options::strict_waivers — the lint-strict preset).
//
// A finding is waived by a same-line comment `// lint: <key>-ok(<reason>)`
// with a non-empty reason; keys: nondet, ordered, fpreduce, header, thread,
// fs, syscall, ckpt-sym, shard, reset — plus the member annotation
// `// lint: ckpt-skip(<reason>)` consumed by L8. A comment-only waiver line
// covers the code line below it.
// The analysis is a scrubbing tokenizer (comments, string/char literals and
// raw strings are blanked before matching) plus a heuristic declaration
// parser, not a C++ front end — rules are deliberately conservative so a
// clean pass means something.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace fedpower::lint {

/// Finding severity. Errors fail the scan; warnings are reported (and
/// serialized to JSON/SARIF) but only fail under --strict. Today the sole
/// warning-class rule is W1-stale-waiver.
enum class Severity { kError, kWarning };

/// One rule violation at a specific source line (1-based).
struct Finding {
  std::string file;     ///< path as given (normalized, '/'-separated)
  std::size_t line = 0; ///< 1-based line number
  std::string rule;     ///< stable rule id, e.g. "L1-nondet"
  std::string message;  ///< human-readable explanation
  Severity severity = Severity::kError;
};

/// Rule scoping. Paths are repository-relative with forward slashes; a file
/// matches a dir entry when it lives underneath it.
struct Options {
  /// Files exempt from L1 (the determinism contract's designated owner:
  /// the RNG implementation itself).
  std::vector<std::string> nondet_allowlist = {
      "src/util/rng.cpp",
  };
  /// Dirs where hash-container iteration order could leak into results.
  std::vector<std::string> determinism_dirs = {
      "src/fed", "src/nn", "src/runtime", "src/core", "src/serve"};
  /// Dirs where FP reductions must keep the documented model-order loops.
  std::vector<std::string> fp_reduce_dirs = {"src/fed", "src/serve"};
  /// Dirs covered by the threading rules (L5).
  std::vector<std::string> thread_rule_dirs = {"src"};
  /// Dirs covered by the filesystem-write rule (L6).
  std::vector<std::string> fs_write_dirs = {"src"};
  /// Files allowed to open writable streams directly: the snapshot
  /// subsystem's atomic writer (the sanctioned durable-write path) and the
  /// explicitly non-durable exporters (CSV reports, JSONL metrics).
  std::vector<std::string> fs_write_allowlist = {
      "src/ckpt/snapshot.cpp",
      "src/util/csv.hpp",
      "src/util/jsonl.hpp",
  };
  /// Dirs covered by the raw-syscall rule (L7).
  std::vector<std::string> syscall_dirs = {"src"};
  /// Translation units allowed to issue event-loop syscalls directly: the
  /// serve subsystem's epoll front end. Blocking peers use the shared
  /// socket primitives (serve/socket_io.hpp), which need none.
  std::vector<std::string> syscall_allowlist = {
      "src/serve/epoll_server.cpp",
  };
  /// Dirs covered by the checkpoint-contract rules (L8/L9). Classes whose
  /// declaration lives outside these dirs are modeled but not checked.
  std::vector<std::string> ckpt_contract_dirs = {"src"};
  /// Dirs covered by the shard-ownership rule (L10): the sharded async
  /// server, where correctness comes from partitioning (DESIGN.md §12).
  std::vector<std::string> shard_ownership_dirs = {"src/serve"};
  /// Type-token substrings that make an injector/worker crossing member
  /// legal: lock-free rings, atomics and immutable state.
  std::vector<std::string> shard_safe_types = {"SpscQueue", "atomic", "const"};
  /// Promote W1-stale-waiver findings from warning to error (the
  /// lint-strict preset / --strict flag).
  bool strict_waivers = false;
};

/// Lints one translation unit given as an in-memory string: the token
/// rules (L1–L7) plus the declaration analyzer (L8–L10) over this single
/// file's model. Stale-waiver detection is a whole-tree concern (a waiver
/// may be consumed by cross-file analysis) and only runs in lint_tree.
/// `path` scopes the directory-dependent rules and is echoed into
/// findings; findings are sorted by line, then rule.
[[nodiscard]] std::vector<Finding> lint_source(const std::string& path,
                                               const std::string& content,
                                               const Options& options = {});

/// Reads and lints one file. `display_path` is the repo-relative path used
/// for rule scoping and reporting. Throws std::runtime_error on I/O error.
[[nodiscard]] std::vector<Finding> lint_file(const std::string& fs_path,
                                             const std::string& display_path,
                                             const Options& options = {});

/// Recursively lints every .cpp/.cc/.hpp/.h file under `inputs` (files or
/// directories, relative to `root`), in sorted path order: token rules per
/// file, then the declaration analyzer over the merged model (headers
/// declare, .cpps define), then W1-stale-waiver over every waiver nothing
/// consumed. Findings are sorted by (file, line, rule).
[[nodiscard]] std::vector<Finding> lint_tree(
    const std::string& root, const std::vector<std::string>& inputs,
    const Options& options = {});

/// True when any finding is an error (warnings alone keep a scan green).
[[nodiscard]] bool has_errors(const std::vector<Finding>& findings);

/// "file:line: rule-id message" lines, one per finding; warnings carry a
/// "[warning]" marker after the rule id.
[[nodiscard]] std::string to_text(const std::vector<Finding>& findings);

/// JSON array of {"file", "line", "rule", "severity", "message"} objects.
[[nodiscard]] std::string to_json(const std::vector<Finding>& findings);

/// SARIF 2.1.0 log (one run, tool "fedpower-lint") for CI artifact
/// consumption; every distinct rule id becomes a reportingDescriptor.
[[nodiscard]] std::string to_sarif(const std::vector<Finding>& findings);

}  // namespace fedpower::lint

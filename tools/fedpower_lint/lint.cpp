#include "fedpower_lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "fedpower_lint/analyze.hpp"
#include "fedpower_lint/scrub.hpp"

namespace fedpower::lint {
namespace {

// ---------------------------------------------------------------------------
// Path helpers
// ---------------------------------------------------------------------------

std::string normalize_path(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  while (path.rfind("./", 0) == 0) path.erase(0, 2);
  return path;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool under_dir(const std::string& path, const std::string& dir) {
  return path.size() > dir.size() + 1 &&
         path.compare(0, dir.size(), dir) == 0 && path[dir.size()] == '/';
}

bool under_any(const std::string& path, const std::vector<std::string>& dirs) {
  return std::any_of(dirs.begin(), dirs.end(), [&](const std::string& d) {
    return under_dir(path, d);
  });
}

bool is_header_path(const std::string& path) {
  return ends_with(path, ".hpp") || ends_with(path, ".h") ||
         ends_with(path, ".hh");
}

bool is_source_path(const std::string& path) {
  return is_header_path(path) || ends_with(path, ".cpp") ||
         ends_with(path, ".cc");
}

bool tok_is(const std::vector<Token>& toks, std::size_t i, const char* text) {
  return i < toks.size() && toks[i].text == text;
}

bool prev_is_member_access(const std::vector<Token>& toks, std::size_t i) {
  return i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

// ---------------------------------------------------------------------------
// Token-stream rule engine (L1–L7)
// ---------------------------------------------------------------------------

class Checker {
 public:
  Checker(std::string path, const Scrubbed& src, WaiverSet* waivers,
          const Options& options)
      : path_(std::move(path)), src_(src), waivers_(waivers),
        options_(options) {
    for (const auto& line : src_.code) tokens_.push_back(lex(line));
  }

  std::vector<Finding> run() {
    const bool header = is_header_path(path_);
    if (std::find(options_.nondet_allowlist.begin(),
                  options_.nondet_allowlist.end(),
                  path_) == options_.nondet_allowlist.end())
      check_nondet();
    if (under_any(path_, options_.determinism_dirs)) check_unordered_iter();
    if (under_any(path_, options_.fp_reduce_dirs)) check_fp_reduce();
    if (header) check_header_hygiene();
    if (under_any(path_, options_.thread_rule_dirs)) check_threading();
    if (under_any(path_, options_.fs_write_dirs) &&
        std::find(options_.fs_write_allowlist.begin(),
                  options_.fs_write_allowlist.end(),
                  path_) == options_.fs_write_allowlist.end())
      check_fs_write();
    if (under_any(path_, options_.syscall_dirs) &&
        std::find(options_.syscall_allowlist.begin(),
                  options_.syscall_allowlist.end(),
                  path_) == options_.syscall_allowlist.end())
      check_syscall();
    return std::move(findings_);
  }

 private:
  void report(std::size_t line_idx, const char* waiver_key, std::string rule,
              std::string message) {
    if (waivers_->try_waive(line_idx, waiver_key)) return;
    findings_.push_back({path_, line_idx + 1, std::move(rule),
                         std::move(message), Severity::kError});
  }

  // L1: nondeterminism sources. Everything stochastic must flow through
  // explicitly seeded util::Rng streams; wall-clock reads are only legal in
  // allowlisted files or under a nondet-ok waiver (e.g. bench timing).
  void check_nondet() {
    for (std::size_t li = 0; li < tokens_.size(); ++li) {
      const auto& toks = tokens_[li];
      for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].ident) continue;
        const std::string& t = toks[i].text;
        const bool call = tok_is(toks, i + 1, "(");
        const bool member = prev_is_member_access(toks, i);
        std::string what;
        if (t == "srand" && call && !member)
          what = "srand() seeds global libc state";
        else if (t == "rand" && call && !member)
          what = "rand() draws from hidden global state";
        else if (t == "random_device")
          what = "std::random_device is entropy-seeded";
        else if (t == "time" && call && !member)
          what = "time() makes results depend on the wall clock";
        else if (t == "getenv" && call && !member)
          what = "getenv() makes behaviour depend on the environment";
        else if (t == "now" && call && i > 0 && toks[i - 1].text == "::")
          what = "clock ::now() reads the wall clock";
        if (!what.empty())
          report(li, "nondet", "L1-nondet",
                 what + "; use a seeded util::Rng stream or waive with "
                        "`// lint: nondet-ok(reason)`");
      }
    }
  }

  // L2: iteration over hash containers on determinism-critical paths.
  // Declaring/looking up in an unordered container is fine — iterating one
  // feeds platform-dependent bucket order into FP accumulation (§8).
  void check_unordered_iter() {
    const std::set<std::string> unordered_types = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    // Pass A: names declared (on one line) with an unordered container type.
    std::set<std::string> unordered_names;
    for (const auto& toks : tokens_) {
      for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].ident || unordered_types.count(toks[i].text) == 0)
          continue;
        std::size_t j = i + 1;
        if (!tok_is(toks, j, "<")) continue;
        int depth = 0;
        for (; j < toks.size(); ++j) {
          if (toks[j].text == "<") ++depth;
          if (toks[j].text == ">" && --depth == 0) break;
        }
        ++j;  // past closing '>'
        while (j < toks.size() &&
               (toks[j].text == "&" || toks[j].text == "*" ||
                toks[j].text == "const"))
          ++j;  // reference/pointer/const qualifiers before the name
        if (j >= toks.size() || !toks[j].ident || toks[j].text == "const")
          continue;
        // `name` is a variable iff not immediately called/qualified.
        if (j + 1 == toks.size() || tok_is(toks, j + 1, ";") ||
            tok_is(toks, j + 1, "=") || tok_is(toks, j + 1, "{") ||
            tok_is(toks, j + 1, ",") || tok_is(toks, j + 1, ")"))
          unordered_names.insert(toks[j].text);
      }
    }
    // Pass B: range-for over an unordered expression, or begin()/end() on a
    // known unordered name.
    for (std::size_t li = 0; li < tokens_.size(); ++li) {
      const auto& toks = tokens_[li];
      for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].ident && toks[i].text == "for" && tok_is(toks, i + 1, "(")) {
          int depth = 0;
          std::size_t colon = 0;
          for (std::size_t j = i + 1; j < toks.size(); ++j) {
            if (toks[j].text == "(") ++depth;
            if (toks[j].text == ")" && --depth == 0) break;
            if (toks[j].text == ":" && depth == 1) {
              colon = j;
              break;
            }
          }
          if (colon == 0) continue;
          int depth2 = 1;
          for (std::size_t j = colon + 1; j < toks.size(); ++j) {
            if (toks[j].text == "(") ++depth2;
            if (toks[j].text == ")" && --depth2 == 0) break;
            if (toks[j].ident && (unordered_names.count(toks[j].text) != 0 ||
                                  unordered_types.count(toks[j].text) != 0))
              report(li, "ordered", "L2-unordered-iter",
                     "range-for over unordered container '" + toks[j].text +
                         "': bucket order is platform-defined; iterate an "
                         "ordered structure or waive with "
                         "`// lint: ordered-ok(reason)`");
          }
        }
        if (toks[i].ident && unordered_names.count(toks[i].text) != 0 &&
            (tok_is(toks, i + 1, ".") || tok_is(toks, i + 1, "->"))) {
          static const std::set<std::string> iter_fns = {
              "begin", "end", "cbegin", "cend", "rbegin", "rend"};
          if (i + 2 < toks.size() && toks[i + 2].ident &&
              iter_fns.count(toks[i + 2].text) != 0 && tok_is(toks, i + 3, "("))
            report(li, "ordered", "L2-unordered-iter",
                   "iterator over unordered container '" + toks[i].text +
                       "': bucket order is platform-defined; iterate an "
                       "ordered structure or waive with "
                       "`// lint: ordered-ok(reason)`");
        }
      }
    }
  }

  // L3: FP reductions in src/fed. Aggregation must keep the model-order
  // accumulation loops (fed/aggregate.hpp) — std::accumulate/std::reduce
  // make the summation order an implementation detail.
  void check_fp_reduce() {
    for (std::size_t li = 0; li < tokens_.size(); ++li) {
      const auto& toks = tokens_[li];
      for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].ident) continue;
        const std::string& t = toks[i].text;
        if ((t == "accumulate" || t == "reduce") && tok_is(toks, i + 1, "(") &&
            !prev_is_member_access(toks, i))
          report(li, "fpreduce", "L3-fp-reduce",
                 "std::" + t +
                     " hides the floating-point summation order; use the "
                     "documented model-order loop (fed/aggregate.hpp) or "
                     "waive with `// lint: fpreduce-ok(reason)`");
      }
    }
  }

  // L4: header hygiene — a guard up front, no using namespace at namespace
  // scope. (The tokenizer can't see scopes, so any `using namespace` in a
  // header is flagged; function-local uses are rare enough to waive.)
  void check_header_hygiene() {
    bool guard_seen = false;
    bool first_code_checked = false;
    for (std::size_t li = 0; li < src_.code.size() && !first_code_checked;
         ++li) {
      const auto& toks = tokens_[li];
      if (toks.empty()) continue;
      first_code_checked = true;
      if (tok_is(toks, 0, "#") &&
          ((tok_is(toks, 1, "pragma") && tok_is(toks, 2, "once")) ||
           tok_is(toks, 1, "ifndef")))
        guard_seen = true;
      if (!guard_seen)
        report(li, "header", "L4-header-guard",
               "header must open with #pragma once or an #ifndef include "
               "guard before any code");
    }
    for (std::size_t li = 0; li < tokens_.size(); ++li) {
      const auto& toks = tokens_[li];
      for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].ident && toks[i].text == "using" && toks[i + 1].ident &&
            toks[i + 1].text == "namespace")
          report(li, "header", "L4-using-namespace",
                 "using namespace in a header leaks into every includer; "
                 "qualify names or waive with `// lint: header-ok(reason)`");
      }
    }
  }

  // L5: threading discipline in src/ — no detached threads (they outlive
  // the barrier semantics of §7) and no raw mutex lock()/unlock() (a thrown
  // exception leaks the lock; use a guard type).
  void check_threading() {
    static const std::set<std::string> lock_fns = {"lock", "unlock",
                                                   "try_lock"};
    for (std::size_t li = 0; li < tokens_.size(); ++li) {
      const auto& toks = tokens_[li];
      for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].ident) continue;
        if (toks[i].text == "detach" && prev_is_member_access(toks, i) &&
            tok_is(toks, i + 1, "(")) {
          report(li, "thread", "L5-thread-detach",
                 "detached threads escape the pool's barrier/exception "
                 "contract (DESIGN.md §7); join them or waive with "
                 "`// lint: thread-ok(reason)`");
        }
        const std::string low = lower(toks[i].text);
        if ((low.find("mutex") != std::string::npos ||
             low.find("mtx") != std::string::npos) &&
            (tok_is(toks, i + 1, ".") || tok_is(toks, i + 1, "->")) &&
            i + 2 < toks.size() && toks[i + 2].ident &&
            lock_fns.count(toks[i + 2].text) != 0 && tok_is(toks, i + 3, "(")) {
          report(li, "thread", "L5-raw-mutex-lock",
                 "raw ." + toks[i + 2].text + "() on '" + toks[i].text +
                     "' is not exception-safe; use std::lock_guard/"
                     "unique_lock/scoped_lock or waive with "
                     "`// lint: thread-ok(reason)`");
        }
      }
    }
  }

  // L6: ad-hoc file writing in src/. Durable artifacts must go through
  // ckpt::write_snapshot_file (temp + fsync + rename + checksum) so a crash
  // never leaves a torn file; only the allowlisted writers (the snapshot
  // subsystem itself and the explicitly non-durable exporters) may open
  // writable streams directly.
  void check_fs_write() {
    for (std::size_t li = 0; li < tokens_.size(); ++li) {
      const auto& toks = tokens_[li];
      for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].ident) continue;
        const std::string& t = toks[i].text;
        std::string what;
        if (t == "ofstream")
          what = "std::ofstream writes a file without atomicity or checksum";
        else if ((t == "fopen" || t == "freopen") &&
                 tok_is(toks, i + 1, "(") && !prev_is_member_access(toks, i))
          what = t + "() writes a file without atomicity or checksum";
        if (!what.empty())
          report(li, "fs", "L6-fs-write",
                 what + "; route durable state through "
                        "ckpt::write_snapshot_file (src/ckpt/snapshot.hpp) "
                        "or waive with `// lint: fs-ok(reason)`");
      }
    }
  }

  // L7: raw event-loop syscalls in src/. epoll/eventfd/accept4 plumbing is
  // confined to the designated event-loop translation unit (the serve
  // front end) so reviewers can audit every place the process touches the
  // readiness machinery.
  void check_syscall() {
    static const std::set<std::string> syscall_fns = {
        "epoll_create", "epoll_create1", "epoll_ctl", "epoll_wait",
        "epoll_pwait",  "eventfd",       "accept4"};
    for (std::size_t li = 0; li < tokens_.size(); ++li) {
      const auto& toks = tokens_[li];
      for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].ident || syscall_fns.count(toks[i].text) == 0) continue;
        if (!tok_is(toks, i + 1, "(") || prev_is_member_access(toks, i))
          continue;
        report(li, "syscall", "L7-raw-syscall",
               toks[i].text +
                   "() belongs in the designated event-loop translation "
                   "unit (serve/epoll_server.cpp); route through the serve "
                   "front end or waive with "
                   "`// lint: syscall-ok(reason)`");
      }
    }
  }

  std::string path_;
  const Scrubbed& src_;
  WaiverSet* waivers_;
  const Options& options_;
  std::vector<std::vector<Token>> tokens_;
  std::vector<Finding> findings_;
};

// ---------------------------------------------------------------------------
// Serialization helpers
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xf];
          out += hex[static_cast<unsigned char>(c) & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* severity_name(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

void sort_findings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

std::string read_file(const std::string& fs_path) {
  std::ifstream in(fs_path, std::ios::binary);
  if (!in) throw std::runtime_error("fedpower-lint: cannot read " + fs_path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Finding stale_finding(const std::string& path, const Waiver& waiver,
                      const Options& options) {
  const std::string shown =
      waiver.key == "ckpt-skip" ? waiver.key : waiver.key + "-ok";
  return {path, waiver.line + 1, "W1-stale-waiver",
          "waiver `" + shown + "(" + waiver.reason +
              ")` no longer suppresses any finding — the code it excused "
              "changed or moved; delete the comment (stale waivers teach "
              "readers the rule still fires here)",
          options.strict_waivers ? Severity::kError : Severity::kWarning};
}

}  // namespace

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content,
                                 const Options& options) {
  const std::string norm = normalize_path(path);
  const Scrubbed scrubbed = scrub(content);
  WaiverSet waivers(scrubbed);
  std::vector<Finding> findings =
      Checker(norm, scrubbed, &waivers, options).run();

  std::vector<FileModel> models;
  models.push_back(build_file_model(norm, scrubbed));
  std::vector<WaiverSet*> waiver_ptrs = {&waivers};
  std::vector<Finding> contract = analyze(models, waiver_ptrs, options);
  findings.insert(findings.end(), std::make_move_iterator(contract.begin()),
                  std::make_move_iterator(contract.end()));
  sort_findings(&findings);
  return findings;
}

std::vector<Finding> lint_file(const std::string& fs_path,
                               const std::string& display_path,
                               const Options& options) {
  return lint_source(display_path, read_file(fs_path), options);
}

std::vector<Finding> lint_tree(const std::string& root,
                               const std::vector<std::string>& inputs,
                               const Options& options) {
  namespace fs = std::filesystem;
  const fs::path root_path = root.empty() ? fs::path(".") : fs::path(root);
  std::vector<std::string> rel_files;
  for (const auto& input : inputs) {
    const fs::path abs = root_path / input;
    if (fs::is_directory(abs)) {
      for (const auto& entry : fs::recursive_directory_iterator(abs)) {
        if (!entry.is_regular_file()) continue;
        const std::string rel =
            normalize_path(fs::relative(entry.path(), root_path).string());
        if (is_source_path(rel)) rel_files.push_back(rel);
      }
    } else if (fs::is_regular_file(abs)) {
      rel_files.push_back(normalize_path(input));
    } else {
      throw std::runtime_error("fedpower-lint: no such file or directory: " +
                               abs.string());
    }
  }
  std::sort(rel_files.begin(), rel_files.end());
  rel_files.erase(std::unique(rel_files.begin(), rel_files.end()),
                  rel_files.end());

  // Scrub every file up front: the token rules, the declaration analyzer
  // and the stale-waiver pass must share one WaiverSet per file so usage
  // tracking sees every consumer.
  std::vector<Scrubbed> scrubs;
  scrubs.reserve(rel_files.size());
  for (const auto& rel : rel_files)
    scrubs.push_back(scrub(read_file((root_path / rel).string())));
  std::vector<WaiverSet> waiver_sets;
  waiver_sets.reserve(rel_files.size());
  for (const Scrubbed& scrubbed : scrubs) waiver_sets.emplace_back(scrubbed);

  std::vector<Finding> all;
  std::vector<FileModel> models;
  models.reserve(rel_files.size());
  for (std::size_t i = 0; i < rel_files.size(); ++i) {
    auto findings =
        Checker(rel_files[i], scrubs[i], &waiver_sets[i], options).run();
    all.insert(all.end(), std::make_move_iterator(findings.begin()),
               std::make_move_iterator(findings.end()));
    models.push_back(build_file_model(rel_files[i], scrubs[i]));
  }

  std::vector<WaiverSet*> waiver_ptrs;
  waiver_ptrs.reserve(waiver_sets.size());
  for (WaiverSet& set : waiver_sets) waiver_ptrs.push_back(&set);
  std::vector<Finding> contract = analyze(models, waiver_ptrs, options);
  all.insert(all.end(), std::make_move_iterator(contract.begin()),
             std::make_move_iterator(contract.end()));

  // W1: waivers nothing consumed. Runs last so every rule has had its
  // chance to claim one.
  for (std::size_t i = 0; i < rel_files.size(); ++i)
    for (const Waiver& waiver : waiver_sets[i].stale())
      all.push_back(stale_finding(rel_files[i], waiver, options));

  sort_findings(&all);
  return all;
}

bool has_errors(const std::vector<Finding>& findings) {
  return std::any_of(findings.begin(), findings.end(), [](const Finding& f) {
    return f.severity == Severity::kError;
  });
}

std::string to_text(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const auto& f : findings) {
    out << f.file << ':' << f.line << ": " << f.rule;
    if (f.severity == Severity::kWarning) out << " [warning]";
    out << ' ' << f.message << '\n';
  }
  return out.str();
}

std::string to_json(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i != 0) out << ",";
    out << "\n  {\"file\": \"" << json_escape(f.file)
        << "\", \"line\": " << f.line << ", \"rule\": \""
        << json_escape(f.rule) << "\", \"severity\": \""
        << severity_name(f.severity) << "\", \"message\": \""
        << json_escape(f.message) << "\"}";
  }
  out << (findings.empty() ? "]\n" : "\n]\n");
  return out.str();
}

std::string to_sarif(const std::vector<Finding>& findings) {
  // Distinct rule ids, in first-appearance order, become the driver's
  // reportingDescriptors; results reference them by index.
  std::vector<std::string> rule_ids;
  std::map<std::string, std::size_t> rule_index;
  for (const Finding& f : findings) {
    if (rule_index.count(f.rule) != 0) continue;
    rule_index[f.rule] = rule_ids.size();
    rule_ids.push_back(f.rule);
  }

  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"fedpower-lint\",\n"
      << "          \"informationUri\": "
         "\"https://example.invalid/fedpower/DESIGN.md\",\n"
      << "          \"rules\": [";
  for (std::size_t i = 0; i < rule_ids.size(); ++i) {
    if (i != 0) out << ",";
    out << "\n            {\"id\": \"" << json_escape(rule_ids[i]) << "\"}";
  }
  out << (rule_ids.empty() ? "]\n" : "\n          ]\n")
      << "        }\n"
      << "      },\n"
      << "      \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i != 0) out << ",";
    out << "\n        {\n"
        << "          \"ruleId\": \"" << json_escape(f.rule) << "\",\n"
        << "          \"ruleIndex\": " << rule_index[f.rule] << ",\n"
        << "          \"level\": \"" << severity_name(f.severity) << "\",\n"
        << "          \"message\": {\"text\": \"" << json_escape(f.message)
        << "\"},\n"
        << "          \"locations\": [\n"
        << "            {\n"
        << "              \"physicalLocation\": {\n"
        << "                \"artifactLocation\": {\"uri\": \""
        << json_escape(f.file) << "\"},\n"
        << "                \"region\": {\"startLine\": " << f.line << "}\n"
        << "              }\n"
        << "            }\n"
        << "          ]\n"
        << "        }";
  }
  out << (findings.empty() ? "]\n" : "\n      ]\n")
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace fedpower::lint

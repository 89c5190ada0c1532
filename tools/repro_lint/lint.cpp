#include "lint.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "index.hpp"
#include "lexer.hpp"
#include "util/error.hpp"

namespace repro::lint {

namespace {

// ----------------------------------------------------------- rule engine

struct RuleDef {
  std::string_view id;
  std::string_view summary;
};

constexpr RuleDef kRules[] = {
    {"RL001",
     "unchecked numeric parsing (stoi/atoi/strtol/sscanf family); use "
     "repro::parse_* from util/parse.hpp"},
    {"RL002",
     "wall-clock or global-RNG nondeterminism (time/rand/random_device/"
     "chrono clocks) outside util/rng and util/simtime"},
    {"RL003",
     "range-for over unordered containers on export or clustering paths "
     "(src/io, src/report, src/snapshot, src/cluster, src/ingest, "
     "src/serve); use repro::sorted_keys/sorted_items"},
    {"RL004",
     "raw std:: exception throw; translate to repro::ParseError / "
     "ConfigError / IoError"},
    {"RL005",
     "floating-point == or != in clustering metrics (src/cluster); compare "
     "against an epsilon"},
    {"RL006",
     "direct <chrono> use outside src/obs and util/simtime; all wall-clock "
     "access goes through the audited obs/stopwatch seam"},
    {"RL007",
     "lock-order cycle in the cross-TU lock acquisition graph; a cycle is "
     "a potential deadlock between pool, queues, WAL and serve workers"},
    {"RL008",
     "explicit non-seq_cst memory order or volatile without a written "
     "proof (// repro-lint: allow(RL008) <why the weaker order is safe>)"},
    {"RL009",
     "blocking call (fsync/read/write/accept/sleep/std::filesystem I/O or "
     "predicate-less condition-variable wait) inside a held lock scope, "
     "directly or one call level deep"},
    {"RL010",
     "rename on the durability path (src/ingest, src/snapshot) not "
     "dominated by an fsync of the written file and followed by a "
     "directory fsync"},
};

const std::set<std::string_view> kParseFns = {
    "stoi",    "stol",    "stoll",   "stoul",   "stoull", "stof",
    "stod",    "stold",   "atoi",    "atol",    "atoll",  "atof",
    "strtol",  "strtoul", "strtoll", "strtoull", "strtof", "strtod",
    "strtold", "sscanf",  "fscanf",  "scanf",
};

const std::set<std::string_view> kNondetIdents = {
    "rand",          "srand",        "random_device",
    "system_clock",  "steady_clock", "high_resolution_clock",
    "gettimeofday",  "localtime",    "gmtime",
};

const std::set<std::string_view> kNondetCalls = {"time", "clock"};

const std::set<std::string_view> kStdExceptions = {
    "runtime_error", "logic_error",     "invalid_argument",
    "out_of_range",  "domain_error",    "length_error",
    "range_error",   "overflow_error",  "underflow_error",
};

const std::set<std::string_view> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

const std::set<std::string_view> kWeakOrders = {
    "memory_order_relaxed", "memory_order_acquire", "memory_order_release",
    "memory_order_acq_rel", "memory_order_consume",
};

const std::set<std::string_view> kWeakOrderTails = {
    "relaxed", "acquire", "release", "acq_rel", "consume",
};

/// Normalizes to forward slashes so directory gating works on any host.
std::string normalized(std::string_view path) {
  std::string out{path};
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

bool in_dir(const std::string& path, std::string_view dir) {
  return path.find(std::string{"/"} + std::string{dir} + "/") !=
         std::string::npos;
}

bool rule_enabled(const Options& options, std::string_view rule) {
  return options.only.empty() || options.only.count(rule) > 0;
}

bool suppressed(const LexedFile& lx, int line, std::string_view rule) {
  if (lx.file_allows.count(rule) > 0) return true;
  const auto it = lx.allows.find(line);
  return it != lx.allows.end() && it->second.count(rule) > 0;
}

// ----------------------------------------------- per-file rules (phase 2a)

struct Checker {
  const std::string& path;
  const LexedFile& lx;
  const Options& options;
  std::vector<Diagnostic>& diagnostics;

  void emit(int line, std::string_view rule, std::string message,
            std::string suggestion) {
    if (!rule_enabled(options, rule) || suppressed(lx, line, rule)) return;
    diagnostics.push_back(Diagnostic{path, line, std::string{rule},
                                     std::move(message),
                                     std::move(suggestion)});
  }

  [[nodiscard]] const Token* at(std::size_t i) const {
    return i < lx.tokens.size() ? &lx.tokens[i] : nullptr;
  }

  [[nodiscard]] bool punct_at(std::size_t i, std::string_view text) const {
    const Token* t = at(i);
    return t != nullptr && t->kind == TokKind::kPunct && t->text == text;
  }

  [[nodiscard]] bool member_access_before(std::size_t i) const {
    if (i == 0) return false;
    const Token& prev = lx.tokens[i - 1];
    return prev.kind == TokKind::kPunct &&
           (prev.text == "." || prev.text == "->");
  }

  // RL001 — unchecked numeric parsing.
  void check_parse_calls() {
    for (std::size_t i = 0; i < lx.tokens.size(); ++i) {
      const Token& t = lx.tokens[i];
      if (t.kind != TokKind::kIdentifier || kParseFns.count(t.text) == 0) {
        continue;
      }
      if (!punct_at(i + 1, "(") || member_access_before(i)) continue;
      emit(t.line, "RL001",
           "unchecked numeric parsing via " + t.text +
               "() — silently accepts prefixes and leaks "
               "std::invalid_argument/out_of_range on hostile input",
           "replace with repro::parse_u16/parse_u32/parse_i32/... "
           "(util/parse.hpp): full-string match, throws ParseError with "
           "context");
    }
  }

  // RL002 — wall-clock / global-RNG nondeterminism.
  void check_nondeterminism() {
    if (in_dir(path, "util") &&
        (path.find("/rng.") != std::string::npos ||
         path.find("/simtime.") != std::string::npos)) {
      return;
    }
    // obs/stopwatch is the audited wall-clock seam: the one place a
    // real clock identifier may legitimately appear.
    if (in_dir(path, "obs") &&
        path.find("/stopwatch.") != std::string::npos) {
      return;
    }
    for (std::size_t i = 0; i < lx.tokens.size(); ++i) {
      const Token& t = lx.tokens[i];
      if (t.kind != TokKind::kIdentifier) continue;
      const bool banned_ident = kNondetIdents.count(t.text) > 0;
      const bool banned_call = kNondetCalls.count(t.text) > 0 &&
                               punct_at(i + 1, "(") &&
                               !member_access_before(i);
      if (!banned_ident && !banned_call) continue;
      emit(t.line, "RL002",
           "nondeterminism source '" + t.text +
               "' — wall-clock time and global RNG state make runs "
               "non-reproducible",
           "thread a seeded repro::Rng (util/rng.hpp) or SimTime "
           "(util/simtime.hpp) through the call site instead");
    }
  }

  // RL003 — unordered iteration on export paths, and since the
  // clustering stages went parallel, on src/cluster too: a hash-order
  // walk there decides tie-breaks (metric sums, candidate ordering)
  // that must not vary run to run or with thread width. src/ingest is
  // gated for the same reason: WAL bytes are replayed for byte-identity
  // and recovery scans feed deterministic counters, so nothing on that
  // path may depend on hash order.
  void check_unordered_iteration() {
    if (!in_dir(path, "io") && !in_dir(path, "report") &&
        !in_dir(path, "snapshot") && !in_dir(path, "cluster") &&
        !in_dir(path, "ingest") && !in_dir(path, "serve")) {
      return;
    }
    // Pass 1: names declared with an unordered_* type in this file.
    std::set<std::string> unordered_names;
    for (std::size_t i = 0; i < lx.tokens.size(); ++i) {
      const Token& t = lx.tokens[i];
      if (t.kind != TokKind::kIdentifier || kUnorderedTypes.count(t.text) == 0) {
        continue;
      }
      std::size_t j = i + 1;
      if (punct_at(j, "<")) {
        int depth = 0;
        for (; j < lx.tokens.size(); ++j) {
          const Token& u = lx.tokens[j];
          if (u.kind != TokKind::kPunct) continue;
          if (u.text == "<") ++depth;
          if (u.text == ">") --depth;
          if (u.text == ">>") depth -= 2;
          if (depth <= 0) {
            ++j;
            break;
          }
        }
      }
      while (j < lx.tokens.size()) {
        const Token& u = lx.tokens[j];
        if (u.kind == TokKind::kPunct && (u.text == "&" || u.text == "*")) {
          ++j;
        } else if (u.kind == TokKind::kIdentifier && u.text == "const") {
          ++j;
        } else {
          break;
        }
      }
      const Token* name = at(j);
      if (name != nullptr && name->kind == TokKind::kIdentifier) {
        unordered_names.insert(name->text);
      }
    }
    // Pass 2: range-fors whose range expression names one of them.
    for (std::size_t i = 0; i < lx.tokens.size(); ++i) {
      const Token& t = lx.tokens[i];
      if (t.kind != TokKind::kIdentifier || t.text != "for" ||
          !punct_at(i + 1, "(")) {
        continue;
      }
      int depth = 0;
      std::size_t colon = 0;
      std::size_t close = 0;
      for (std::size_t j = i + 1; j < lx.tokens.size(); ++j) {
        const Token& u = lx.tokens[j];
        if (u.kind != TokKind::kPunct) continue;
        if (u.text == "(") ++depth;
        if (u.text == ")") {
          --depth;
          if (depth == 0) {
            close = j;
            break;
          }
        }
        if (u.text == ":" && depth == 1 && colon == 0) colon = j;
      }
      if (colon == 0 || close == 0) continue;
      for (std::size_t j = colon + 1; j < close; ++j) {
        const Token& u = lx.tokens[j];
        if (u.kind != TokKind::kIdentifier) continue;
        if (unordered_names.count(u.text) == 0 &&
            kUnorderedTypes.count(u.text) == 0) {
          continue;
        }
        emit(t.line, "RL003",
             "range-for over unordered container '" + u.text +
                 "' on an export path — hash-seed iteration order leaks "
                 "into serialized output",
             "iterate repro::sorted_keys(" + u.text + ") / sorted_items(" +
                 u.text + ") (util/sorted.hpp), or store in std::map");
        break;
      }
    }
  }

  // RL006 — direct <chrono> use outside the sanctioned modules. RL002
  // catches the clock *identifiers*; this rule catches the header and
  // any chrono-qualified name (duration arithmetic, literals scopes),
  // so timing code cannot creep in under aliases the identifier list
  // does not know about.
  void check_chrono_quarantine() {
    if (in_dir(path, "obs")) return;
    if (in_dir(path, "util") &&
        path.find("/simtime.") != std::string::npos) {
      return;
    }
    for (std::size_t i = 0; i < lx.tokens.size(); ++i) {
      const Token& t = lx.tokens[i];
      if (t.kind != TokKind::kIdentifier || t.text != "chrono") continue;
      const bool include_directive =
          i >= 3 && punct_at(i - 1, "<") && at(i - 2)->text == "include" &&
          punct_at(i - 3, "#") && punct_at(i + 1, ">");
      const bool qualified_use = punct_at(i + 1, "::");
      if (!include_directive && !qualified_use) continue;
      emit(t.line, "RL006",
           include_directive
               ? std::string{"direct #include <chrono> — wall-clock access "
                             "is quarantined to the obs/stopwatch seam"}
               : std::string{"chrono:: qualified name — wall-clock access "
                             "is quarantined to the obs/stopwatch seam"},
           "take timings via obs::monotonic_now_ns()/obs::Stopwatch "
           "(src/obs/stopwatch.hpp), or simulated time via SimTime "
           "(util/simtime.hpp)");
    }
  }

  // RL004 — raw std:: exception throws.
  void check_raw_throws() {
    for (std::size_t i = 0; i < lx.tokens.size(); ++i) {
      const Token& t = lx.tokens[i];
      if (t.kind != TokKind::kIdentifier || t.text != "throw") continue;
      std::size_t j = i + 1;
      const Token* next = at(j);
      if (next != nullptr && next->kind == TokKind::kIdentifier &&
          next->text == "std" && punct_at(j + 1, "::")) {
        j += 2;
      }
      const Token* name = at(j);
      if (name == nullptr || name->kind != TokKind::kIdentifier ||
          kStdExceptions.count(name->text) == 0 || !punct_at(j + 1, "(")) {
        continue;
      }
      emit(t.line, "RL004",
           "raw std::" + name->text +
               " thrown — callers at parse boundaries dispatch on the "
               "repo's typed errors and will not recover from this",
           "throw repro::ParseError (malformed input), repro::ConfigError "
           "(inconsistent configuration) or repro::IoError (OS failure) "
           "from util/error.hpp");
    }
  }

  // RL005 — float equality in clustering metrics.
  void check_float_equality() {
    if (!in_dir(path, "cluster")) return;
    const auto is_float_literal = [](const Token& t) {
      if (t.kind != TokKind::kNumber) return false;
      if (t.text.size() > 1 && (t.text[1] == 'x' || t.text[1] == 'X')) {
        return false;
      }
      return t.text.find('.') != std::string::npos ||
             t.text.find('e') != std::string::npos ||
             t.text.find('E') != std::string::npos ||
             t.text.back() == 'f' || t.text.back() == 'F';
    };
    std::set<std::string> float_names;
    for (std::size_t i = 0; i + 1 < lx.tokens.size(); ++i) {
      const Token& t = lx.tokens[i];
      if (t.kind != TokKind::kIdentifier ||
          (t.text != "double" && t.text != "float")) {
        continue;
      }
      const Token& next = lx.tokens[i + 1];
      if (next.kind == TokKind::kIdentifier && next.text != "const") {
        float_names.insert(next.text);
      }
    }
    for (std::size_t i = 0; i < lx.tokens.size(); ++i) {
      const Token& t = lx.tokens[i];
      if (t.kind != TokKind::kPunct || (t.text != "==" && t.text != "!=")) {
        continue;
      }
      const auto is_float_operand = [&](const Token* side) {
        if (side == nullptr) return false;
        if (is_float_literal(*side)) return true;
        return side->kind == TokKind::kIdentifier &&
               float_names.count(side->text) > 0;
      };
      if (!is_float_operand(i > 0 ? &lx.tokens[i - 1] : nullptr) &&
          !is_float_operand(at(i + 1))) {
        continue;
      }
      emit(t.line, "RL005",
           "floating-point '" + t.text +
               "' in clustering metrics — exact equality on similarity "
               "scores is input-perturbation-fragile",
           "compare std::abs(a - b) against an explicit epsilon, or make "
           "the sentinel an integer");
    }
  }

  // RL008 — atomics audit: every explicit weakening of the default
  // seq_cst ordering (and every volatile, which provides neither
  // atomicity nor ordering) must carry a written proof in an allow
  // annotation. Weak orders are correct exactly when someone has
  // argued why; this rule makes the argument a build artifact.
  void check_atomics_audit() {
    for (std::size_t i = 0; i < lx.tokens.size(); ++i) {
      const Token& t = lx.tokens[i];
      if (t.kind != TokKind::kIdentifier) continue;
      if (t.text == "volatile") {
        emit(t.line, "RL008",
             "'volatile' — provides neither atomicity nor inter-thread "
             "ordering; concurrent state goes through std::atomic",
             "use std::atomic<> (default seq_cst), or annotate with "
             "// repro-lint: allow(RL008) <proof> if this is MMIO-style "
             "access the repo genuinely needs");
        continue;
      }
      std::string order;
      if (kWeakOrders.count(t.text) > 0) {
        order = t.text;
      } else if (t.text == "memory_order" && punct_at(i + 1, "::")) {
        const Token* tail = at(i + 2);
        if (tail != nullptr && tail->kind == TokKind::kIdentifier &&
            kWeakOrderTails.count(tail->text) > 0) {
          order = "memory_order::" + tail->text;
        }
      }
      if (order.empty()) continue;
      emit(t.line, "RL008",
           "explicit weak memory order '" + order +
               "' — non-seq_cst orderings are banned unless the line (or "
               "file) carries a written proof of why the weaker order is "
               "safe",
           "drop the argument to use the default seq_cst ordering, or "
           "annotate with // repro-lint: allow(RL008) <proof> (allow-file "
           "when one argument covers every site in the file)");
    }
  }
};

// ------------------------------------------- project rules (phase 2b)

/// Shared emit path for the index-backed rules: finds the lexed file a
/// diagnostic lands in so line and file-scope suppressions apply.
struct ProjectChecker {
  const ProjectIndex& index;
  const Options& options;
  std::vector<Diagnostic>& diagnostics;
  std::map<std::string, const LexedFile*, std::less<>> lexed_by_path;

  explicit ProjectChecker(const ProjectIndex& index_, const Options& options_,
                          std::vector<Diagnostic>& diagnostics_)
      : index(index_), options(options_), diagnostics(diagnostics_) {
    for (const IndexedFile& file : index.files()) {
      lexed_by_path.emplace(file.path, &file.lexed);
    }
  }

  void emit(const std::string& file, int line, std::string_view rule,
            std::string message, std::string suggestion) {
    if (!rule_enabled(options, rule)) return;
    const auto it = lexed_by_path.find(file);
    if (it != lexed_by_path.end() && suppressed(*it->second, line, rule)) {
      return;
    }
    diagnostics.push_back(Diagnostic{file, line, std::string{rule},
                                     std::move(message),
                                     std::move(suggestion)});
  }

  // RL007 — lock-order cycles. Build the acquisition graph (edge M -> N
  // when N is acquired while M is held, directly or through one level
  // of resolved calls), then flag every edge inside a strongly
  // connected component: those are the acquisitions that can deadlock.
  void check_lock_order() {
    struct Edge {
      std::string from;
      std::string to;
      std::string file;
      int line = 0;
      std::string via;  // callee qualified name, "" for direct nesting
    };
    std::vector<Edge> edges;
    for (const FunctionInfo& fn : index.functions()) {
      for (const LockScope& held : fn.locks) {
        for (const LockScope& inner : fn.locks) {
          if (inner.begin <= held.begin || inner.begin >= held.end) continue;
          edges.push_back(
              Edge{held.mutex, inner.mutex, fn.file, inner.line, ""});
        }
        for (const CallSite& call : fn.calls) {
          if (call.token <= held.begin || call.token >= held.end) continue;
          const FunctionInfo* callee = index.resolve(call);
          if (callee == nullptr || callee == &fn) continue;
          for (const std::string& target : index.direct_locks(*callee)) {
            edges.push_back(Edge{held.mutex, target, fn.file, call.line,
                                 callee->qualified_name});
          }
        }
      }
    }

    // Strongly connected components over the mutex graph (iterative
    // Tarjan). Any SCC of size > 1, or any self-edge, is a cycle.
    std::map<std::string, std::vector<std::string>> adjacency;
    for (const Edge& e : edges) adjacency[e.from].push_back(e.to);
    std::map<std::string, int> component;
    {
      std::map<std::string, int> order_of;
      std::map<std::string, int> low_of;
      std::map<std::string, bool> on_stack;
      std::vector<std::string> stack;
      int order = 0;
      int components = 0;
      struct Frame {
        std::string node;
        std::size_t next_child = 0;
      };
      for (const auto& [root, unused] : adjacency) {
        (void)unused;
        if (order_of.count(root) > 0) continue;
        std::vector<Frame> frames{Frame{root, 0}};
        while (!frames.empty()) {
          Frame& frame = frames.back();
          const std::string node = frame.node;
          if (frame.next_child == 0 && order_of.count(node) == 0) {
            order_of[node] = low_of[node] = order++;
            stack.push_back(node);
            on_stack[node] = true;
          }
          bool descended = false;
          const auto adj_it = adjacency.find(node);
          if (adj_it != adjacency.end()) {
            while (frame.next_child < adj_it->second.size()) {
              const std::string& child = adj_it->second[frame.next_child++];
              if (order_of.count(child) == 0) {
                frames.push_back(Frame{child, 0});
                descended = true;
                break;
              }
              if (on_stack[child]) {
                low_of[node] = std::min(low_of[node], order_of[child]);
              }
            }
          }
          if (descended) continue;
          if (low_of[node] == order_of[node]) {
            for (;;) {
              const std::string popped = stack.back();
              stack.pop_back();
              on_stack[popped] = false;
              component[popped] = components;
              if (popped == node) break;
            }
            ++components;
          }
          frames.pop_back();
          if (!frames.empty()) {
            low_of[frames.back().node] =
                std::min(low_of[frames.back().node], low_of[node]);
          }
        }
      }
    }
    std::map<int, std::size_t> scc_size;
    for (const auto& [node, c] : component) ++scc_size[c];

    for (const Edge& e : edges) {
      const bool self_cycle = e.from == e.to;
      const auto from_it = component.find(e.from);
      const auto to_it = component.find(e.to);
      const bool in_cycle =
          self_cycle ||
          (from_it != component.end() && to_it != component.end() &&
           from_it->second == to_it->second &&
           scc_size[from_it->second] > 1);
      if (!in_cycle) continue;
      std::string message =
          self_cycle
              ? "mutex '" + e.from + "' acquired again while already held"
              : "lock-order cycle: '" + e.to + "' acquired while '" +
                    e.from + "' is held, and the reverse order exists "
                    "elsewhere in the acquisition graph";
      if (!e.via.empty()) message += " (via call to " + e.via + "())";
      emit(e.file, e.line, "RL007", std::move(message),
           "acquire mutexes in one documented order everywhere (see the "
           "lock hierarchy in DESIGN.md §9), or narrow one guard so the "
           "scopes never nest");
    }
  }

  // RL009 — no blocking calls under a held lock, directly or through
  // one level of resolved intra-project calls.
  void check_blocking_under_lock() {
    for (const FunctionInfo& fn : index.functions()) {
      for (const LockScope& held : fn.locks) {
        for (const BlockingOp& op : fn.blocking) {
          if (op.token <= held.begin || op.token >= held.end) continue;
          emit(fn.file, op.line, "RL009",
               "blocking '" + op.what + "' while holding '" + held.mutex +
                   "' — stalls every thread contending on the lock and "
                   "invites deadlock on the serve/WAL hot paths",
               "hoist the blocking operation out of the critical section: "
               "copy what it needs under the lock, unlock, then block");
        }
        for (const CallSite& call : fn.calls) {
          if (call.token <= held.begin || call.token >= held.end) continue;
          const FunctionInfo* callee = index.resolve(call);
          if (callee == nullptr || callee == &fn || callee->blocking.empty()) {
            continue;
          }
          emit(fn.file, call.line, "RL009",
               "call to " + callee->qualified_name + "() performs blocking '" +
                   callee->blocking.front().what + "' while '" + held.mutex +
                   "' is held",
               "hoist the call out of the critical section: copy what it "
               "needs under the lock, unlock, then call");
        }
      }
    }
  }

  // RL010 — durability ordering on the crash-safety paths: every rename
  // must see an fsync of the written file before it and a directory
  // fsync after it, in the same function (an fsync inside a directly
  // called project function counts — that is how fsync_file and
  // fsync_dir factor the protocol).
  void check_durability_ordering() {
    const auto fsyncs_directly = [](const FunctionInfo& fn) {
      return std::any_of(fn.durability.begin(), fn.durability.end(),
                         [](const DurabilityOp& op) {
                           return op.kind == DurabilityOp::Kind::kFsync;
                         });
    };
    for (const FunctionInfo& fn : index.functions()) {
      if (!in_dir(fn.file, "ingest") && !in_dir(fn.file, "snapshot")) {
        continue;
      }
      for (const DurabilityOp& op : fn.durability) {
        if (op.kind != DurabilityOp::Kind::kRename) continue;
        const auto fsync_on_side = [&](bool before) {
          for (const DurabilityOp& other : fn.durability) {
            if (other.kind != DurabilityOp::Kind::kFsync) continue;
            if (before ? other.token < op.token : other.token > op.token) {
              return true;
            }
          }
          for (const CallSite& call : fn.calls) {
            if (before ? call.token >= op.token : call.token <= op.token) {
              continue;
            }
            const FunctionInfo* callee = index.resolve(call);
            if (callee != nullptr && callee != &fn &&
                fsyncs_directly(*callee)) {
              return true;
            }
          }
          return false;
        };
        if (!fsync_on_side(/*before=*/true)) {
          emit(fn.file, op.line, "RL010",
               "rename in " + fn.qualified_name +
                   "() without a preceding fsync of the written file — a "
                   "crash can publish the final name over unsynced bytes",
               "fsync the written file (or call a helper that does, e.g. "
               "fsync_file) before the rename, as in snapshot "
               "atomic_write");
        }
        if (!fsync_on_side(/*before=*/false)) {
          emit(fn.file, op.line, "RL010",
               "rename in " + fn.qualified_name +
                   "() not followed by a directory fsync — the directory "
                   "entry itself can vanish in a crash after the rename",
               "fsync the parent directory (or call a helper that does, "
               "e.g. fsync_dir) after the rename, as in snapshot "
               "atomic_write");
        }
      }
    }
  }
};

void sort_and_dedupe(std::vector<Diagnostic>& diagnostics) {
  std::sort(diagnostics.begin(), diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  diagnostics.erase(
      std::unique(diagnostics.begin(), diagnostics.end(),
                  [](const Diagnostic& a, const Diagnostic& b) {
                    return a.file == b.file && a.line == b.line &&
                           a.rule == b.rule && a.message == b.message;
                  }),
      diagnostics.end());
}

bool excluded(const Options& options, const std::string& path) {
  for (const std::string& needle : options.excludes) {
    if (path.find(needle) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> rule_catalog() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const RuleDef& rule : kRules) {
    out.emplace_back(std::string{rule.id}, std::string{rule.summary});
  }
  return out;
}

std::vector<Diagnostic> lint_project(
    const std::vector<std::pair<std::string, std::string>>& sources,
    const Options& options) {
  std::vector<std::pair<std::string, std::string>> kept;
  kept.reserve(sources.size());
  for (const auto& [path, content] : sources) {
    if (!excluded(options, normalized(path))) kept.emplace_back(path, content);
  }
  const ProjectIndex index = ProjectIndex::build(kept);
  std::vector<Diagnostic> diagnostics;
  for (const IndexedFile& file : index.files()) {
    Checker checker{file.path, file.lexed, options, diagnostics};
    checker.check_parse_calls();
    checker.check_nondeterminism();
    checker.check_chrono_quarantine();
    checker.check_unordered_iteration();
    checker.check_raw_throws();
    checker.check_float_equality();
    checker.check_atomics_audit();
  }
  ProjectChecker project{index, options, diagnostics};
  project.check_lock_order();
  project.check_blocking_under_lock();
  project.check_durability_ordering();
  sort_and_dedupe(diagnostics);
  return diagnostics;
}

std::vector<Diagnostic> lint_source(const std::string& path,
                                    std::string_view content,
                                    const Options& options) {
  return lint_project({{path, std::string{content}}}, options);
}

namespace {

bool lintable_extension(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
}

std::string read_file_or_throw(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    // RL004's own discipline applies to the linter too: an unreadable
    // input is an OS-level failure, so it surfaces as the typed IoError.
    throw IoError("repro-lint: cannot open " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

std::string json_escaped(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::vector<Diagnostic> lint_paths(
    const std::vector<std::filesystem::path>& paths, const Options& options) {
  std::vector<std::filesystem::path> files;
  for (const std::filesystem::path& path : paths) {
    if (std::filesystem::is_directory(path)) {
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(path)) {
        if (entry.is_regular_file() && lintable_extension(entry.path())) {
          files.push_back(entry.path());
        }
      }
    } else {
      files.push_back(path);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  std::vector<std::pair<std::string, std::string>> sources;
  sources.reserve(files.size());
  for (const std::filesystem::path& file : files) {
    const std::string path = file.generic_string();
    if (excluded(options, normalized(path))) continue;
    sources.emplace_back(path, read_file_or_throw(file));
  }
  return lint_project(sources, options);
}

std::vector<Diagnostic> lint_path(const std::filesystem::path& path,
                                  const Options& options) {
  return lint_paths({path}, options);
}

std::string diagnostics_to_json(const std::vector<Diagnostic>& diagnostics) {
  std::map<std::string, std::size_t> counts;
  for (const auto& [id, summary] : rule_catalog()) {
    (void)summary;
    counts[id] = 0;
  }
  for (const Diagnostic& d : diagnostics) ++counts[d.rule];

  std::string out = "{\n  \"tool\": \"repro-lint\",\n  \"version\": 2,\n";
  out += "  \"total\": " + std::to_string(diagnostics.size()) + ",\n";
  out += "  \"rule_counts\": {";
  bool first = true;
  for (const auto& [rule, count] : counts) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escaped(rule) + "\": " + std::to_string(count);
    first = false;
  }
  out += "\n  },\n  \"diagnostics\": [";
  first = true;
  for (const Diagnostic& d : diagnostics) {
    out += first ? "\n" : ",\n";
    out += "    {\"file\": \"" + json_escaped(d.file) + "\", ";
    out += "\"line\": " + std::to_string(d.line) + ", ";
    out += "\"rule\": \"" + json_escaped(d.rule) + "\", ";
    out += "\"message\": \"" + json_escaped(d.message) + "\", ";
    out += "\"suggestion\": \"" + json_escaped(d.suggestion) + "\"}";
    first = false;
  }
  out += diagnostics.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::vector<Diagnostic> apply_baseline(std::vector<Diagnostic> diagnostics,
                                       std::string_view baseline_text) {
  struct Entry {
    std::string rule;
    std::string file_suffix;
    std::string message;
  };
  std::vector<Entry> entries;
  std::size_t start = 0;
  while (start <= baseline_text.size()) {
    std::size_t end = baseline_text.find('\n', start);
    if (end == std::string_view::npos) end = baseline_text.size();
    const std::string_view line =
        trimmed(baseline_text.substr(start, end - start));
    start = end + 1;
    if (line.empty() || line.front() == '#') {
      if (end == baseline_text.size()) break;
      continue;
    }
    const std::size_t first = line.find('|');
    const std::size_t second =
        first == std::string_view::npos ? std::string_view::npos
                                        : line.find('|', first + 1);
    if (second == std::string_view::npos) {
      if (end == baseline_text.size()) break;
      continue;  // malformed line: never silently suppress by accident
    }
    entries.push_back(Entry{std::string{line.substr(0, first)},
                            std::string{line.substr(first + 1,
                                                    second - first - 1)},
                            std::string{line.substr(second + 1)}});
    if (end == baseline_text.size()) break;
  }
  const auto matches = [&](const Diagnostic& d) {
    for (const Entry& entry : entries) {
      if (d.rule != entry.rule || d.message != entry.message) continue;
      if (d.file == entry.file_suffix || d.file.ends_with(entry.file_suffix)) {
        return true;
      }
    }
    return false;
  };
  diagnostics.erase(
      std::remove_if(diagnostics.begin(), diagnostics.end(), matches),
      diagnostics.end());
  return diagnostics;
}

std::string diagnostics_to_baseline(const std::vector<Diagnostic>& diagnostics,
                                    std::string_view strip_prefix) {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    std::string file = d.file;
    if (!strip_prefix.empty() && file.rfind(strip_prefix, 0) == 0) {
      file.erase(0, strip_prefix.size());
    }
    out += d.rule + "|" + file + "|" + d.message + "\n";
  }
  return out;
}

int run_cli(int argc, const char* const* argv) {
  Options options;
  bool fix_suggestions = false;
  bool emit_baseline = false;
  std::string format = "text";
  std::string baseline_path;
  std::vector<std::filesystem::path> paths;
  const auto split_rules = [&](std::string_view list) {
    while (!list.empty()) {
      const std::size_t comma = list.find(',');
      const std::string_view rule = trimmed(
          comma == std::string_view::npos ? list : list.substr(0, comma));
      if (!rule.empty()) options.only.emplace(rule);
      if (comma == std::string_view::npos) break;
      list.remove_prefix(comma + 1);
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--fix-suggestions") {
      fix_suggestions = true;
    } else if (arg == "--emit-baseline") {
      emit_baseline = true;
    } else if (arg.rfind("--only=", 0) == 0) {
      split_rules(arg.substr(7));
    } else if (arg == "--only" && i + 1 < argc) {
      split_rules(argv[++i]);
    } else if (arg.rfind("--format=", 0) == 0) {
      format = std::string{arg.substr(9)};
    } else if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = std::string{arg.substr(11)};
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg.rfind("--exclude=", 0) == 0) {
      options.excludes.emplace_back(arg.substr(10));
    } else if (arg == "--exclude" && i + 1 < argc) {
      options.excludes.emplace_back(argv[++i]);
    } else if (arg == "--list-rules") {
      for (const auto& [id, summary] : rule_catalog()) {
        std::cout << id << "  " << summary << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: repro_lint [--fix-suggestions] [--only=RL001,...]\n"
             "                  [--format=text|json] [--baseline=FILE]\n"
             "                  [--exclude=SUBSTR]... [--emit-baseline]\n"
             "                  [--list-rules] <file-or-dir>...\n";
      return 0;
    } else if (arg.rfind("-", 0) == 0) {
      std::cerr << "repro-lint: unknown option '" << arg << "'\n";
      return 2;
    } else {
      paths.emplace_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "usage: repro_lint [--fix-suggestions] [--only=RL001,...] "
                 "[--format=text|json] [--baseline=FILE] <file-or-dir>...\n";
    return 2;
  }
  if (format != "text" && format != "json") {
    std::cerr << "repro-lint: unknown format '" << format << "'\n";
    return 2;
  }

  std::vector<Diagnostic> diagnostics;
  try {
    diagnostics = lint_paths(paths, options);
    if (!baseline_path.empty()) {
      diagnostics = apply_baseline(
          diagnostics,
          read_file_or_throw(std::filesystem::path{baseline_path}));
    }
  } catch (const std::exception& error) {
    std::cerr << error.what() << "\n";
    return 2;
  }

  if (emit_baseline) {
    std::cout << diagnostics_to_baseline(diagnostics);
    return diagnostics.empty() ? 0 : 1;
  }
  if (format == "json") {
    std::cout << diagnostics_to_json(diagnostics);
  } else {
    for (const Diagnostic& d : diagnostics) {
      std::cout << d.file << ":" << d.line << ": " << d.rule << ": "
                << d.message << "\n";
      if (fix_suggestions && !d.suggestion.empty()) {
        std::cout << "    suggestion: " << d.suggestion << "\n";
      }
    }
  }
  // Per-rule counts on stderr in every mode, so a CI log shows at a
  // glance which rule regressed even when the JSON went to an artifact.
  std::map<std::string, std::size_t> counts;
  for (const Diagnostic& d : diagnostics) ++counts[d.rule];
  for (const auto& [rule, count] : counts) {
    std::cerr << "repro-lint: " << rule << ": " << count << "\n";
  }
  if (diagnostics.empty()) {
    std::cerr << "repro-lint: clean\n";
    return 0;
  }
  std::cerr << "repro-lint: " << diagnostics.size() << " diagnostic(s)\n";
  return 1;
}

}  // namespace repro::lint

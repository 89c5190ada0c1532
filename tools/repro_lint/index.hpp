// Phase 1 of repro-lint v2: the cross-TU project index.
//
// The concurrency/durability rules (RL007–RL010) cannot be answered
// from one token stream in isolation: whether `seal()` holds a lock
// while calling `fsync_dir()` depends on what both functions do, and a
// lock-order cycle is by definition a property of the whole program.
// This index is the shared substrate those rules query:
//
//   - every function definition, with a qualified name built from the
//     enclosing class/struct scopes (`ThreadPool::work_on`,
//     `AdmissionQueue::offer`) and its body token range;
//   - every `std::mutex` member/global declaration, qualified the same
//     way, so two classes both naming a member `mutex_` stay distinct;
//   - every lock-guard scope (`lock_guard`, `unique_lock`,
//     `scoped_lock`, `shared_lock`): which mutex it acquires, resolved
//     against the declarations, and the token range it covers (to the
//     end of the enclosing brace block);
//   - every call site by bare callee name, resolved to a unique indexed
//     function where possible (same-class candidates win; ambiguous
//     bare names resolve only if all candidates agree);
//   - per-function "direct effect" summaries the rules consume: which
//     mutexes a function acquires, whether it performs a blocking
//     syscall, an fsync, or a rename.
//
// Resolution is deliberately name-based (no types, no overloads): the
// repo's style — distinct member names per class, one definition per
// qualified name — makes this reliable, and the index tests pin the
// collision behavior (ambiguous names resolve to nothing rather than
// to the wrong TU).
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lexer.hpp"

namespace repro::lint {

/// One mutex acquisition scope inside a function body.
struct LockScope {
  std::string mutex;        ///< resolved mutex id, e.g. "ThreadPool::queue_mutex_"
  std::string raw_name;     ///< last identifier of the guard expression
  int line = 0;             ///< line of the guard declaration
  std::size_t begin = 0;    ///< token index of the guard declaration
  std::size_t end = 0;      ///< one past the last token the lock covers
};

/// One call site inside a function body.
struct CallSite {
  std::string name;         ///< bare callee name as written
  int callee = -1;          ///< index into ProjectIndex::functions, -1 unresolved
  int line = 0;
  std::size_t token = 0;    ///< token index of the callee name
  bool member = false;      ///< preceded by `.` or `->`
};

/// One direct blocking operation (RL009's primitive events).
struct BlockingOp {
  std::string what;         ///< e.g. "fsync", "filesystem::rename", "wait without predicate"
  int line = 0;
  std::size_t token = 0;
};

/// One rename/fsync event on the durability path (RL010's primitives).
struct DurabilityOp {
  enum class Kind { kFsync, kRename } kind = Kind::kFsync;
  int line = 0;
  std::size_t token = 0;
};

struct FunctionInfo {
  std::string name;            ///< bare name, e.g. "work_on"
  std::string qualified_name;  ///< e.g. "ThreadPool::work_on"
  std::string class_name;      ///< enclosing class path, "" for free functions
  std::string file;
  int line = 0;
  std::size_t body_begin = 0;  ///< token index of the opening `{`
  std::size_t body_end = 0;    ///< token index of the matching `}`
  std::vector<LockScope> locks;
  std::vector<CallSite> calls;
  std::vector<BlockingOp> blocking;
  std::vector<DurabilityOp> durability;
};

struct MutexDecl {
  std::string qualified_name;  ///< e.g. "AdmissionQueue::mutex_"
  std::string member_name;     ///< e.g. "mutex_"
  std::string file;
  int line = 0;
};

/// One file's lexed stream plus where its functions live, kept so the
/// per-file rules and the project rules share a single lex pass.
struct IndexedFile {
  std::string path;            ///< normalized (forward slashes)
  LexedFile lexed;
  std::vector<int> functions;  ///< indices into ProjectIndex::functions
};

class ProjectIndex {
 public:
  /// Builds the index over a set of (path, content) translation units.
  /// Paths are normalized to forward slashes.
  static ProjectIndex build(
      const std::vector<std::pair<std::string, std::string>>& sources);

  [[nodiscard]] const std::vector<IndexedFile>& files() const {
    return files_;
  }
  [[nodiscard]] const std::vector<FunctionInfo>& functions() const {
    return functions_;
  }
  [[nodiscard]] const std::vector<MutexDecl>& mutexes() const {
    return mutexes_;
  }

  /// Function lookup by bare name: indices of every candidate.
  [[nodiscard]] std::vector<int> functions_named(std::string_view name) const;

  /// The function (if any) a call site resolves to, or nullptr.
  [[nodiscard]] const FunctionInfo* resolve(const CallSite& call) const;

  /// Mutex ids `fn` acquires directly (its own guard scopes).
  [[nodiscard]] std::set<std::string> direct_locks(const FunctionInfo& fn) const;

 private:
  void index_file(IndexedFile& file);
  void index_body(FunctionInfo& fn, const std::vector<Token>& tokens,
                  const std::vector<std::size_t>& match);
  void resolve_calls();
  void resolve_lock_names(IndexedFile& file);

  std::vector<IndexedFile> files_;
  std::vector<FunctionInfo> functions_;
  std::vector<MutexDecl> mutexes_;
  std::map<std::string, std::vector<int>, std::less<>> functions_by_name_;
  std::map<std::string, std::vector<int>, std::less<>> mutexes_by_member_;
};

}  // namespace repro::lint

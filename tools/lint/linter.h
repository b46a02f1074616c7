#ifndef MDMATCH_TOOLS_LINT_LINTER_H_
#define MDMATCH_TOOLS_LINT_LINTER_H_

// mdmatch_lint: the project-invariant linter.
//
// Enforces the structural invariants the compiler cannot (and the Clang
// thread-safety build only partially can):
//
//   frozen-mutation  Frozen/snapshot types (SessionGeneration,
//                    IndexSnapshot, FrozenPairSet, the COW treap
//                    Node/Block types) declare no mutable fields and no
//                    non-const member functions — immutability after
//                    publication is a compile-shape property, not a
//                    convention.
//   const-escape     No const_cast / const_pointer_cast outside the
//                    commented allowlist (the uniquely-owned-recycle fast
//                    paths of the persistent indexes).
//   raw-lock         No raw .lock()/.unlock() calls and no direct
//                    std::mutex / std::condition_variable use — locking
//                    goes through util::Mutex + util::MutexLock (RAII,
//                    thread-safety annotated).
//   naked-new        No naked new/delete in src/ (private-constructor
//                    shared_ptr factories are allowlisted).
//   layering         The layer DAG util -> schema -> sim -> core ->
//                    datagen -> match -> candidate -> api -> stream has
//                    no back-edges (the match/ forwarding headers over
//                    relocated candidate/ types are exempt).
//   tsa-escape       NO_THREAD_SAFETY_ANALYSIS carries a justification
//                    comment on the same or a preceding line.
//   hot-loop-alloc   No per-iteration container construction
//                    (std::vector, std::string, maps/sets) inside loop
//                    bodies in src/match/ and src/sim/ — the per-pair
//                    layers hoist scratch or carve from util::Arena.
//                    References, pointers, nested names and statics are
//                    exempt; deliberate cold paths carry an allow marker.
//
// A finding is suppressed by a marker comment on its line or within the
// two lines above it:
//
//   // mdmatch-lint: allow(<check>) <why this site is sound>
//
// Comments, string literals and raw strings are stripped before any
// check runs, so prose and patterns never self-trigger.

#include <string>
#include <vector>

namespace mdmatch::lint {

struct Finding {
  std::string file;
  size_t line = 0;  ///< 1-based
  std::string check;
  std::string message;
};

/// Lints one file. `path` is the repo-relative path the layering and
/// scoping rules key on; `content` is passed separately so tests can
/// lint fixture text under pretend paths.
std::vector<Finding> LintFile(const std::string& path,
                              const std::string& content);

/// Rank of `path`'s layer in the DAG above, or -1 for paths outside
/// src/ (tools, bench, tests — exempt from the layering check).
int LayerRank(const std::string& path);

/// `content` with comments, string/char literals and raw strings blanked
/// (newlines kept, so line numbers survive). Exposed for tests.
std::string StripCommentsAndStrings(const std::string& content);

}  // namespace mdmatch::lint

#endif  // MDMATCH_TOOLS_LINT_LINTER_H_

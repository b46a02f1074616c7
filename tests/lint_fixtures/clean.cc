// Negative fixture: everything the other fixtures do wrong, done right.
// The linter must report nothing here (under a pretend src/ path).

#include <cstdint>
#include <memory>

#include "util/thread_annotations.h"

namespace mdmatch {

class Counter {
 public:
  void Increment() {
    util::MutexLock lock(mu_);  // RAII, no raw lock()/unlock()
    ++count_;
  }
  uint64_t count() const {
    util::MutexLock lock(mu_);
    return count_;
  }

 private:
  mutable util::Mutex mu_;
  uint64_t count_ GUARDED_BY(mu_) = 0;
};

// Frozen type done right: const accessors only, built by a factory.
class FrozenPairSet {
 public:
  static std::shared_ptr<const FrozenPairSet> Make() {
    // mdmatch-lint: allow(naked-new) private-ctor factory, exercising
    // the allowlist: make_shared cannot reach the constructor.
    return std::shared_ptr<const FrozenPairSet>(new FrozenPairSet());
  }
  uint64_t size() const { return size_; }

 private:
  FrozenPairSet() = default;
  uint64_t size_ = 0;
};

// Strings and comments never trigger checks: "new int", "delete p",
// ".lock()" — and the same inside a literal:
const char* kDecoy = "new delete .lock() const_cast<int*> std::mutex";

std::unique_ptr<int> Allocate() { return std::make_unique<int>(42); }

}  // namespace mdmatch

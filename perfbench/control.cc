#include <algorithm>
#include <functional>
#include <string>

#include "perfbench.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace perfbench {
namespace {

/// Minimum time between two kernel runs of MaybeRun.
constexpr double kControlInterval = 0.05;

const std::vector<std::string>& ControlStrings() {
  static const std::vector<std::string> strings = [] {
    Rng rng(7);
    std::vector<std::string> out(4096);
    for (std::string& s : out) {
      const size_t length = 8 + rng.Index(16);
      for (size_t i = 0; i < length; ++i) s.push_back(rng.Letter());
    }
    return out;
  }();
  return strings;
}

/// Restricted Damerau-Levenshtein distance with a freshly allocated table:
/// the same mix of allocation, string access and dynamic programming as
/// the matcher's own work, in code the program under test cannot change.
uint32_t Distance(const std::string& a, const std::string& b) {
  std::vector<std::vector<uint32_t>> d(a.size() + 1,
                                       std::vector<uint32_t>(b.size() + 1));
  for (size_t x = 0; x <= a.size(); ++x) d[x][0] = static_cast<uint32_t>(x);
  for (size_t y = 0; y <= b.size(); ++y) d[0][y] = static_cast<uint32_t>(y);
  for (size_t x = 1; x <= a.size(); ++x) {
    for (size_t y = 1; y <= b.size(); ++y) {
      const uint32_t cost = a[x - 1] == b[y - 1] ? 0 : 1;
      d[x][y] = std::min({d[x - 1][y] + 1, d[x][y - 1] + 1,
                          d[x - 1][y - 1] + cost});
      if (x > 1 && y > 1 && a[x - 1] == b[y - 2] && a[x - 2] == b[y - 1]) {
        d[x][y] = std::min(d[x][y], d[x - 2][y - 2] + cost);
      }
    }
  }
  return d[a.size()][b.size()];
}

double Median(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

}  // namespace

double ControlArm::Run() {
  const std::vector<std::string>& strings = ControlStrings();
  const double start = MonotonicSeconds();
  uint64_t acc = 0;
  for (size_t i = 0; i < 600; ++i) {
    const std::string& a = strings[(i * 7919) % strings.size()];
    const std::string& b = strings[(i * 104729 + 13) % strings.size()];
    acc += Distance(a, b) + std::hash<std::string>{}(a + b);
  }
  std::vector<std::string> sorted(strings.begin(), strings.begin() + 2048);
  std::sort(sorted.begin(), sorted.end());
  acc += sorted[acc % sorted.size()].size();
  const double end = MonotonicSeconds();
  sink_ = acc;  // keeps the kernel's result observable
  samples_.push_back({end, end - start});
  last_ = end;
  return end - start;
}

void ControlArm::MaybeRun() {
  if (MonotonicSeconds() - last_ >= kControlInterval) Run();
}

double ControlArm::MedianSeconds() const {
  std::vector<double> all;
  for (const Sample& sample : samples_) all.push_back(sample.seconds);
  return Median(std::move(all));
}

double ControlArm::SecondsNear(double from, double to) const {
  std::vector<double> inside;
  for (const Sample& sample : samples_) {
    if (sample.at >= from && sample.at <= to) inside.push_back(sample.seconds);
  }
  return inside.empty() ? MedianSeconds() : Median(std::move(inside));
}

}  // namespace perfbench

#include "sim/edit_distance.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace mdmatch::sim {

namespace {

/// Myers' bit-parallel scan: the pattern (shorter string, <= 64 chars) is
/// encoded as per-character position bitmasks; each text character updates
/// the vertical delta vectors in O(1) word operations, and `score` tracks
/// the distance of the full pattern against the text prefix. The final
/// score can drop by at most 1 per remaining text character, which gives
/// the early-abandon bound: once score - remaining > max_dist the distance
/// cannot come back under the budget.
size_t MyersCore(std::string_view text, std::string_view pattern,
                 size_t max_dist) {
  const size_t m = pattern.size();
  const size_t n = text.size();
  // Character-position masks, generation-stamped instead of zeroed: the
  // typical pattern is a short attribute value, and clearing a 2KB table
  // per call would cost more than the scan itself.
  static thread_local uint64_t peq[256];
  static thread_local uint64_t stamp[256];
  static thread_local uint64_t generation = 0;
  ++generation;
  for (size_t i = 0; i < m; ++i) {
    const auto c = static_cast<unsigned char>(pattern[i]);
    if (stamp[c] != generation) {
      stamp[c] = generation;
      peq[c] = 0;
    }
    peq[c] |= uint64_t{1} << i;
  }
  const uint64_t high = uint64_t{1} << (m - 1);
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  size_t score = m;
  for (size_t j = 0; j < n; ++j) {
    const auto c = static_cast<unsigned char>(text[j]);
    const uint64_t eq = stamp[c] == generation ? peq[c] : 0;
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & high) {
      ++score;
    } else if (mh & high) {
      --score;
    }
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
    if (score > max_dist && score - max_dist > n - j - 1) {
      return max_dist + 1;
    }
  }
  return score;
}

}  // namespace

size_t MyersLevenshtein(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);
  if (b.empty()) return a.size();
  return MyersCore(a, b, a.size() + b.size());
}

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter string
  if (b.empty()) return a.size();
  if (b.size() <= 64) return MyersCore(a, b, a.size() + b.size());
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t up = row[j];
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[j] = std::min({up + 1, row[j - 1] + 1, diag + cost});
      diag = up;
    }
  }
  return row[b.size()];
}

size_t LevenshteinDistanceBounded(std::string_view a, std::string_view b,
                                  size_t max_dist) {
  if (a.size() < b.size()) std::swap(a, b);
  if (a.size() - b.size() > max_dist) return max_dist + 1;
  if (b.empty()) return a.size();
  if (b.size() <= 64) {
    return std::min(MyersCore(a, b, max_dist), max_dist + 1);
  }

  const size_t kInf = std::numeric_limits<size_t>::max() / 2;
  std::vector<size_t> row(b.size() + 1, kInf);
  for (size_t j = 0; j <= std::min(b.size(), max_dist); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    // Only cells within the band |i - j| <= max_dist can be <= max_dist.
    size_t lo = (i > max_dist) ? i - max_dist : 1;
    size_t hi = std::min(b.size(), i + max_dist);
    size_t diag = (lo > 1) ? row[lo - 1] : row[0];
    if (lo == 1) row[0] = i <= max_dist ? i : kInf;
    size_t row_min = kInf;
    for (size_t j = lo; j <= hi; ++j) {
      size_t up = row[j];
      size_t left = (j == lo && lo > 1) ? kInf : row[j - 1];
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[j] = std::min({up + 1, left + 1, diag + cost});
      diag = up;
      row_min = std::min(row_min, row[j]);
    }
    if (hi < b.size()) row[hi + 1] = kInf;
    if (row_min > max_dist) return max_dist + 1;
  }
  return std::min(row[b.size()], max_dist + 1);
}

size_t OsaDistance(std::string_view a, std::string_view b) {
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  const size_t n = a.size();
  const size_t m = b.size();
  // Three rolling rows: i-2, i-1, i.
  std::vector<size_t> prev2(m + 1), prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        cur[j] = std::min(cur[j], prev2[j - 2] + 1);
      }
    }
    std::swap(prev2, prev);
    std::swap(prev, cur);
  }
  return prev[m];
}

size_t DamerauLevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t kInf = n + m;

  // Lowrance-Wagner algorithm with an alphabet map of last occurrences.
  std::array<size_t, 256> da;
  da.fill(0);

  // (n+2) x (m+2) matrix with a sentinel border of kInf.
  std::vector<size_t> h((n + 2) * (m + 2));
  auto at = [&](size_t i, size_t j) -> size_t& { return h[i * (m + 2) + j]; };
  at(0, 0) = kInf;
  for (size_t i = 0; i <= n; ++i) {
    at(i + 1, 0) = kInf;
    at(i + 1, 1) = i;
  }
  for (size_t j = 0; j <= m; ++j) {
    at(0, j + 1) = kInf;
    at(1, j + 1) = j;
  }

  for (size_t i = 1; i <= n; ++i) {
    size_t db = 0;
    for (size_t j = 1; j <= m; ++j) {
      size_t i1 = da[static_cast<unsigned char>(b[j - 1])];
      size_t j1 = db;
      size_t cost = 1;
      if (a[i - 1] == b[j - 1]) {
        cost = 0;
        db = j;
      }
      size_t transpose =
          (i1 > 0 && j1 > 0)
              ? at(i1, j1) + (i - i1 - 1) + 1 + (j - j1 - 1)
              : kInf;
      at(i + 1, j + 1) = std::min({at(i, j) + cost,      // substitution
                                   at(i + 1, j) + 1,     // insertion
                                   at(i, j + 1) + 1,     // deletion
                                   transpose});          // transposition
    }
    da[static_cast<unsigned char>(a[i - 1])] = i;
  }
  return at(n + 1, m + 1);
}

size_t DamerauLevenshteinDistanceBounded(std::string_view a,
                                         std::string_view b,
                                         size_t max_dist) {
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t gap = n > m ? n - m : m - n;
  if (gap > max_dist) return max_dist + 1;
  if (n == 0 || m == 0) return std::max(n, m);  // == gap <= max_dist
  if (max_dist >= n + m) return DamerauLevenshteinDistance(a, b);

  // Banded Lowrance-Wagner. Any cell whose true value is <= max_dist has
  // |i - j| <= max_dist (the length gap lower-bounds every prefix
  // distance), and a transposition source (i1, j1) contributing a value
  // <= max_dist satisfies the same bound, so computing only the band and
  // reading everything else as kInf preserves every value <= max_dist;
  // out-of-band cells may come out too large, never too small. The
  // scratch matrix is thread-local: the hot path calls this per candidate
  // pair and a fresh (n+2)x(m+2) allocation would dominate the DP.
  // Huge inputs would pin the retained thread-local scratch (and the
  // per-row fill would dominate anyway): fall back to the per-call
  // full-matrix algorithm above ~512KB of cells. Attribute values in
  // record matching sit far below this.
  if ((n + 2) * (m + 2) > (size_t{1} << 16)) {
    const size_t dist = DamerauLevenshteinDistance(a, b);
    return dist <= max_dist ? dist : max_dist + 1;
  }

  const size_t kInf = n + m;
  static thread_local std::vector<size_t> h;
  const size_t stride = m + 2;
  if (h.size() < (n + 2) * stride) h.resize((n + 2) * stride);
  auto at = [&](size_t i, size_t j) -> size_t& { return h[i * stride + j]; };

  // Last-occurrence rows per character, generation-stamped (see MyersCore
  // for why not a 2KB fill per call).
  static thread_local size_t da_row[256];
  static thread_local uint64_t da_stamp[256];
  static thread_local uint64_t da_generation = 0;
  ++da_generation;
  auto da_get = [&](unsigned char c) {
    return da_stamp[c] == da_generation ? da_row[c] : size_t{0};
  };

  std::fill(h.begin(), h.begin() + 2 * stride, kInf);
  at(1, 1) = 0;
  for (size_t j = 1; j <= std::min(m, max_dist); ++j) at(1, j + 1) = j;

  for (size_t i = 1; i <= n; ++i) {
    // The whole row defaults to kInf; only band cells get real values.
    // (Stale scratch from previous calls must never be readable.)
    std::fill(h.begin() + (i + 1) * stride, h.begin() + (i + 2) * stride,
              kInf);
    if (i <= max_dist + 1) at(i + 1, 1) = i <= max_dist ? i : kInf;
    const size_t lo = i > max_dist ? i - max_dist : 1;
    const size_t hi = std::min(m, i + max_dist);
    size_t db = 0;
    for (size_t j = lo; j <= hi; ++j) {
      const size_t i1 = da_get(static_cast<unsigned char>(b[j - 1]));
      const size_t j1 = db;
      size_t cost = 1;
      if (a[i - 1] == b[j - 1]) {
        cost = 0;
        db = j;
      }
      const size_t transpose =
          (i1 > 0 && j1 > 0)
              ? at(i1, j1) + (i - i1 - 1) + 1 + (j - j1 - 1)
              : kInf;
      at(i + 1, j + 1) = std::min({at(i, j) + cost,   // substitution
                                   at(i + 1, j) + 1,  // insertion
                                   at(i, j + 1) + 1,  // deletion
                                   transpose});       // transposition
    }
    const auto c = static_cast<unsigned char>(a[i - 1]);
    da_stamp[c] = da_generation;
    da_row[c] = i;
  }
  return std::min(at(n + 1, m + 1), max_dist + 1);
}

double NormalizedDamerauLevenshtein(std::string_view a, std::string_view b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  size_t dist = DamerauLevenshteinDistance(a, b);
  return 1.0 - static_cast<double>(dist) / static_cast<double>(longest);
}

size_t DlEditBudget(double theta, size_t longest) {
  if (!(theta < 1)) return 0;      // θ >= 1 or NaN: no edit allowed
  if (theta <= 0) return longest;  // θ <= 0: every edit allowed
  // The epsilon absorbs binary-representation error in (1 - theta): at
  // theta = 0.8 and length 5 the allowance must be exactly 1.0 edit, not
  // 0.9999999999999998.
  return static_cast<size_t>((1.0 - theta) * static_cast<double>(longest) +
                             1e-9);  // floor: dist is integral
}

EditSignature MakeEditSignature(std::string_view s) {
  EditSignature sig;
  sig.length = s.size();
  for (unsigned char c : s) {
    sig.presence |= uint64_t{1} << (c & 63);
    uint8_t& count = sig.counts[c & 15];
    if (count != 255) ++count;
  }
  return sig;
}

size_t EditDistanceLowerBound(const EditSignature& a, const EditSignature& b) {
  // surplus + deficit = total and surplus - deficit = net, so the larger
  // of the two is (total + |net|) / 2; total and net have equal parity.
  // Branch-free, so the loop vectorizes.
  int total = 0;
  int net = 0;
  for (size_t i = 0; i < a.counts.size(); ++i) {
    const int d = static_cast<int>(a.counts[i]) - static_cast<int>(b.counts[i]);
    total += d < 0 ? -d : d;
    net += d;
  }
  const auto counts = static_cast<size_t>((total + (net < 0 ? -net : net)) / 2);
  const size_t gap =
      a.length > b.length ? a.length - b.length : b.length - a.length;
  const size_t flips =
      (static_cast<size_t>(std::popcount(a.presence ^ b.presence)) + 1) / 2;
  return std::max({gap, counts, flips});
}

bool DlSimilar(std::string_view a, std::string_view b, double theta) {
  if (a == b) return true;  // similarity subsumes equality by axiom
  // Every quantity below is an integral edit count, so the real-valued
  // allowance (1 - theta) * max(|a|, |b|) collapses to its floor — the
  // single budget DlEditBudget computes (and prefilters bound against).
  const size_t budget = DlEditBudget(theta, std::max(a.size(), b.size()));

  // Cheap rejections first: the length gap lower-bounds every edit
  // distance, and a != b (checked above) needs at least one edit.
  size_t gap = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  if (gap > budget) return false;
  if (budget == 0) return false;

  // Bounded Levenshtein upper-bounds DL (DL only removes cost), so
  // lev <= budget proves similarity. Conversely each transposition can
  // save at most one edit versus Levenshtein across two positions, so
  // dl >= lev / 2: lev > 2*budget + 1 proves dissimilarity. Only the gap
  // in between needs a (bounded) DL computation.
  size_t lev = LevenshteinDistanceBounded(a, b, 2 * budget + 1);
  if (lev <= budget) return true;
  if (lev > 2 * budget + 1) return false;
  return DamerauLevenshteinDistanceBounded(a, b, budget) <= budget;
}

}  // namespace mdmatch::sim

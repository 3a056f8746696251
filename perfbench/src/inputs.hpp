// Seeded inputs shared by every perfbench program.
//
// The benchmark owns its input generation (it does not call the library's
// workload generators), so the inputs a seed produces stay identical across
// commits of the program under test. Everything here is a pure function of
// the seed: the batch edge file, the per-tenant serve streams, the estimate
// families, and the request scripts.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <queue>
#include <string>
#include <vector>

#include <unistd.h>

namespace perfbench {

struct Pair {
  std::uint32_t set = 0;
  std::uint64_t elem = 0;
};

/// SplitMix64: small, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from (seed, purpose, index).
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose,
                                 std::uint64_t index) {
  Rng rng(seed * 0x100000001b3ULL ^ (purpose << 32) ^ index);
  rng.next();
  return rng.next();
}

/// Zipf over {0..support-1}: P(i) ~ 1/(i+1)^alpha, sampled by CDF search.
class Zipf {
 public:
  Zipf(std::size_t support, double alpha) : cdf_(support) {
    double total = 0.0;
    for (std::size_t i = 0; i < support; ++i) {
      total += std::pow(static_cast<double>(i + 1), -alpha);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t sample(Rng& rng) const {
    const double u = rng.unit();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// ------------------------------------------------------------ batch input --

/// The batch workloads' instance: set sizes fall off as a power of the set's
/// rank (the size multiset is fixed, so every seed yields about the same
/// edge count and the same sketch pressure) and element popularity is Zipf,
/// so hot elements hit the degree cap. Far more capped edges than the edge
/// budget arrive, so p* drops well below 1 early in the stream.
struct BatchSpec {
  std::uint32_t n = 500;
  std::uint64_t m = 2000000;
  std::size_t max_size = 80000;
  std::size_t min_size = 1500;
  double alpha_sets = 0.8;
  double alpha_elems = 1.1;
  std::uint32_t k = 20;
  double eps = 0.15;
  std::uint64_t sketch_seed = 7;
};

/// Sets as sorted, duplicate-free element lists (index = set id).
using SetLists = std::vector<std::vector<std::uint64_t>>;

inline SetLists make_batch_sets(std::uint64_t seed, const BatchSpec& spec) {
  Rng rng(derive_seed(seed, 1, 0));
  std::vector<std::uint32_t> rank_of(spec.n);
  std::iota(rank_of.begin(), rank_of.end(), 0u);
  for (std::size_t i = spec.n; i > 1; --i) {
    std::swap(rank_of[i - 1], rank_of[rng.below(i)]);
  }
  const Zipf elems(spec.m, spec.alpha_elems);
  SetLists sets(spec.n);
  for (std::uint32_t s = 0; s < spec.n; ++s) {
    const double scaled = static_cast<double>(spec.max_size) *
                          std::pow(rank_of[s] + 1.0, -spec.alpha_sets);
    const std::size_t size =
        std::max(spec.min_size, static_cast<std::size_t>(scaled));
    std::vector<std::uint64_t>& list = sets[s];
    list.reserve(size);
    for (std::size_t i = 0; i < size; ++i) list.push_back(elems.sample(rng));
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return sets;
}

/// All edges of `sets` in a seeded random arrival order.
inline std::vector<Pair> arrival_order(const SetLists& sets,
                                       std::uint64_t seed) {
  std::vector<Pair> edges;
  std::size_t total = 0;
  for (const auto& list : sets) total += list.size();
  edges.reserve(total);
  for (std::uint32_t s = 0; s < sets.size(); ++s) {
    for (const std::uint64_t e : sets[s]) edges.push_back({s, e});
  }
  Rng rng(derive_seed(seed, 2, 0));
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.below(i)]);
  }
  return edges;
}

/// The binary edge file format covstream reads (docs/FORMATS.md): the
/// 8-byte magic, a u64 edge count, then packed little-endian {u32, u64}.
inline bool write_edge_file(const std::string& path,
                            const std::vector<Pair>& edges) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::vector<unsigned char> buf;
  buf.reserve(16 + edges.size() * 12);
  const char magic[8] = {'c', 'o', 'v', 's', 'b', 'i', 'n', '1'};
  buf.insert(buf.end(), magic, magic + 8);
  auto put = [&buf](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) buf.push_back(static_cast<unsigned char>(v >> (8 * i)));
  };
  put(edges.size(), 8);
  for (const Pair& e : edges) {
    put(e.set, 4);
    put(e.elem, 8);
  }
  // Flushed to disk here, so the jobs' own snapshot fsyncs never pay for
  // writing back the input file.
  const bool ok = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size() &&
                  std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  return std::fclose(f) == 0 && ok;
}

inline bool read_edge_file(const std::string& path, std::vector<Pair>* edges) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  unsigned char header[16];
  bool ok = std::fread(header, 1, 16, f) == 16;
  std::uint64_t count = 0;
  for (int i = 0; i < 8 && ok; ++i) count |= std::uint64_t{header[8 + i]} << (8 * i);
  std::vector<unsigned char> body(count * 12);
  ok = ok && std::fread(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok) return false;
  edges->resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const unsigned char* r = body.data() + 12 * i;
    std::uint32_t s = 0;
    std::uint64_t e = 0;
    for (int b = 0; b < 4; ++b) s |= std::uint32_t{r[b]} << (8 * b);
    for (int b = 0; b < 8; ++b) e |= std::uint64_t{r[4 + b]} << (8 * b);
    (*edges)[i] = {s, e};
  }
  return true;
}

inline SetLists sets_from_edges(const std::vector<Pair>& edges,
                                std::uint32_t n) {
  SetLists sets(n);
  for (const Pair& e : edges) {
    if (e.set < n) sets[e.set].push_back(e.elem);
  }
  for (auto& list : sets) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return sets;
}

/// |union of the chosen sets| over the full instance.
inline std::size_t true_coverage(const SetLists& sets,
                                 const std::vector<std::uint32_t>& chosen) {
  std::vector<std::uint64_t> all;
  for (const std::uint32_t s : chosen) {
    if (s < sets.size()) all.insert(all.end(), sets[s].begin(), sets[s].end());
  }
  std::sort(all.begin(), all.end());
  return static_cast<std::size_t>(std::unique(all.begin(), all.end()) - all.begin());
}

/// Offline lazy greedy max-k-cover on the full instance: the quality
/// reference for cover_ratio. Returns the number of elements covered.
inline std::size_t greedy_coverage(const SetLists& sets, std::uint32_t k) {
  // Element ids may be sparse 64-bit values; index them densely first.
  std::vector<std::uint64_t> ids;
  for (const auto& list : sets) ids.insert(ids.end(), list.begin(), list.end());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<std::vector<std::uint32_t>> dense(sets.size());
  for (std::size_t s = 0; s < sets.size(); ++s) {
    for (const std::uint64_t e : sets[s]) {
      dense[s].push_back(static_cast<std::uint32_t>(
          std::lower_bound(ids.begin(), ids.end(), e) - ids.begin()));
    }
  }
  std::vector<bool> covered(ids.size(), false);
  std::priority_queue<std::pair<std::size_t, std::uint32_t>> heap;
  for (std::uint32_t s = 0; s < dense.size(); ++s) heap.push({dense[s].size(), s});
  std::size_t total = 0;
  for (std::uint32_t picked = 0; picked < k && !heap.empty();) {
    const std::uint32_t s = heap.top().second;
    heap.pop();
    std::size_t gain = 0;
    for (const std::uint32_t e : dense[s]) gain += covered[e] ? 0 : 1;
    if (gain == 0) continue;
    if (!heap.empty() && gain < heap.top().first) {
      heap.push({gain, s});
      continue;
    }
    for (const std::uint32_t e : dense[s]) covered[e] = true;
    total += gain;
    ++picked;
  }
  return total;
}

}  // namespace perfbench

// The serve workloads' traffic, as a pure function of the seed.
//
// Both the load generator (against the shipped server) and the traced
// replay (in-process twins) build their requests from here, so a probe
// script replayed in-process is byte-for-byte the script the server saw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace perfbench {

/// Zipf tables are large (one double per id); tenant streams of one size
/// share them. Called from one thread while the scenario is built.
inline std::shared_ptr<const Zipf> shared_zipf(std::size_t support,
                                              double alpha) {
  static std::map<std::pair<std::size_t, double>, std::shared_ptr<const Zipf>>
      cache;
  auto& slot = cache[{support, alpha}];
  if (!slot) slot = std::make_shared<const Zipf>(support, alpha);
  return slot;
}

/// One tenant of wire_ingest: a sketch over n sets tuned for k, fed an
/// endless seeded stream. Set ids are Zipf over [0, n); a quarter of the
/// element ids are Zipf over a hot pool of `hot` ids (they meet the degree
/// cap), the rest are fresh ids (each a new retained element, so a saturated
/// sketch holds about one element per budgeted edge). `prefill_edges` are
/// ingested in set-up, several times the edge budget, so it saturates.
struct TenantSpec {
  std::string name;
  std::uint32_t n = 0;
  std::uint32_t k = 20;
  std::uint64_t hot = 0;
  std::size_t prefill_edges = 0;
  double open_rate = 0.0;  // open-loop requests/s of its connection
};

/// The sketch parameters every tenant is created with (sent explicitly, so
/// a change of the server's defaults cannot silently change the workload).
constexpr double kTenantEps = 0.15;
constexpr std::uint64_t kTenantSeed = 11;

class TenantStream {
 public:
  TenantStream(std::uint64_t seed, std::size_t index, const TenantSpec& spec)
      : rng_(derive_seed(seed, 3, index)),
        hot_(spec.hot),
        sets_(shared_zipf(spec.n, 0.6)),
        elems_(shared_zipf(spec.hot, 1.05)) {}

  Pair next() {
    ++consumed_;
    const auto set = static_cast<std::uint32_t>(sets_->sample(rng_));
    const std::uint64_t elem = rng_.below(4) == 0
                                   ? elems_->sample(rng_)
                                   : hot_ + (rng_.next() >> 24);
    return {set, elem};
  }
  /// Pairs drawn so far: a verifier regenerates exactly this prefix.
  std::size_t consumed() const { return consumed_; }

 private:
  Rng rng_;
  std::uint64_t hot_;
  std::shared_ptr<const Zipf> sets_;
  std::shared_ptr<const Zipf> elems_;
  std::size_t consumed_ = 0;
};

/// The first `count` pairs of a tenant's stream.
inline std::vector<Pair> stream_prefix(std::uint64_t seed, std::size_t index,
                                       const TenantSpec& spec,
                                       std::size_t count) {
  TenantStream stream(seed, index, spec);
  std::vector<Pair> out(count);
  for (Pair& p : out) p = stream.next();
  return out;
}

constexpr std::size_t kLinePairs = 16;        // the workload's ingest line
constexpr std::size_t kPrefillLinePairs = 2048;  // set-up lines (< 64 KiB)
constexpr std::size_t kFamilies = 16;
constexpr std::size_t kFamilySize = 5;

/// What a successful response to a request starts with.
constexpr const char* kOkIngested = "ok ingested ";
constexpr const char* kOkEstimate = "ok estimate ";
constexpr const char* kOkSolve = "ok solve ";
constexpr const char* kOkCreated = "ok created ";

struct Request {
  std::string line;
  const char* expect = nullptr;
};

inline Request ingest_request(const std::string& tenant, TenantStream& stream,
                              std::size_t pairs) {
  std::string line = "ingest " + tenant;
  for (std::size_t i = 0; i < pairs; ++i) {
    const Pair p = stream.next();
    line += ' ';
    line += std::to_string(p.set);
    line += ' ';
    line += std::to_string(p.elem);
  }
  return {std::move(line), kOkIngested};
}

inline std::string family_text(const std::vector<std::uint32_t>& family) {
  std::string text;
  for (const std::uint32_t s : family) {
    if (!text.empty()) text += ',';
    text += std::to_string(s);
  }
  return text;
}

inline Request estimate_request(const std::string& tenant,
                                const std::vector<std::uint32_t>& family) {
  return {"estimate " + tenant + " " + family_text(family), kOkEstimate};
}

inline Request solve_request(const std::string& tenant, std::uint32_t k) {
  return {"solve " + tenant + " " + std::to_string(k), kOkSolve};
}

inline Request create_request(const TenantSpec& spec) {
  char eps[32];
  std::snprintf(eps, sizeof eps, "%g", kTenantEps);
  return {"create " + spec.name + " " + std::to_string(spec.n) + " " +
              std::to_string(spec.k) + " " + eps + " " +
              std::to_string(kTenantSeed),
          kOkCreated};
}

/// wire_ingest: two sketch sizes; a saturated n=100 tenant is ~0.6 MB,
/// under one core's L2, an n=1000 tenant ~9 MB, past it.
inline std::vector<TenantSpec> wire_ingest_tenants() {
  return {{"small0", 100, 20, 10000, 40000, 1000.0},
          {"small1", 100, 20, 10000, 40000, 1000.0},
          {"large0", 1000, 20, 100000, 600000, 25.0},
          {"large1", 1000, 20, 100000, 600000, 25.0}};
}

/// Each phase runs one client connection per tenant: it owns that tenant
/// and ingests kLinePairs-pair lines into it (a single writer per tenant, so
/// the order a tenant sees is the order its stream was drawn). The closed
/// loop keeps kClosedDepth requests outstanding per connection; the open
/// loop sends at the tenant's open_rate.
constexpr std::size_t kClosedDepth = 8;
/// The tenant whose final solve gives cover_ratio.
constexpr std::size_t kCoverTenant = 2;

/// wire_ingest bound to a seed: tenant streams and estimate families.
struct ScenarioState {
  explicit ScenarioState(std::uint64_t seed_in)
      : tenants(wire_ingest_tenants()), seed(seed_in) {
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      streams.emplace_back(seed, t, tenants[t]);
      Rng rng(derive_seed(seed, 4, t));
      std::vector<std::vector<std::uint32_t>> list(kFamilies);
      for (auto& family : list) {
        for (std::size_t i = 0; i < kFamilySize; ++i) {
          family.push_back(static_cast<std::uint32_t>(rng.below(tenants[t].n)));
        }
      }
      families.push_back(std::move(list));
    }
  }

  /// Set-up requests: create every tenant, then its prefill lines.
  std::vector<Request> setup_requests() {
    std::vector<Request> out;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      out.push_back(create_request(tenants[t]));
    }
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      const TenantSpec& spec = tenants[t];
      for (std::size_t done = 0; done < spec.prefill_edges;
           done += kPrefillLinePairs) {
        out.push_back(ingest_request(
            spec.name, streams[t],
            std::min(kPrefillLinePairs, spec.prefill_edges - done)));
      }
    }
    return out;
  }

  /// The traced run's serial probe: ingest lines with estimates and solves
  /// mixed in, sent one at a time so each request is one server batch and
  /// the in-process replay can be matched to it request by request. Every
  /// solve is sent twice before the tenant's next write: the first after a
  /// write misses the server's solver cache, the repeat hits it.
  std::vector<Request> probe_requests() {
    std::vector<Request> out;
    for (std::size_t i = 0; i < 240; ++i) {
      const std::size_t t = i % tenants.size();
      if (i % 24 >= 20) {
        const Request solve = solve_request(tenants[t].name, tenants[t].k);
        out.push_back(solve);
        out.push_back(solve);
      } else if (i % 8 >= 6) {
        out.push_back(estimate_request(tenants[t].name, families[t][i % kFamilies]));
      } else {
        out.push_back(ingest_request(tenants[t].name, streams[t], kLinePairs));
      }
    }
    return out;
  }

  /// The next phase request into tenant `t`, for the connection that owns
  /// it only (its stream belongs to that one alone).
  Request next_request(std::size_t t) {
    return ingest_request(tenants[t].name, streams[t], kLinePairs);
  }

  std::vector<TenantSpec> tenants;
  std::uint64_t seed;
  std::vector<TenantStream> streams;
  std::vector<std::vector<std::vector<std::uint32_t>>> families;
};

/// The time-to-solution job: a fresh n=1000 tenant fed a seeded block of
/// kLinePairs-pair ingest lines, then solved. Job `j` uses its own stream.
constexpr std::size_t kJobEdges = 16384;
constexpr std::size_t kJobReps = 30;

inline TenantSpec job_spec(std::size_t j) {
  return {"job" + std::to_string(j), 1000, 20, 100000, 0};
}

inline std::vector<Request> job_requests(std::uint64_t seed, std::size_t j) {
  const TenantSpec spec = job_spec(j);
  TenantStream stream(seed, 1000 + j, spec);
  std::vector<Request> out;
  out.push_back(create_request(spec));
  for (std::size_t done = 0; done < kJobEdges; done += kLinePairs) {
    out.push_back(ingest_request(spec.name, stream, kLinePairs));
  }
  out.push_back(solve_request(spec.name, spec.k));
  return out;
}

}  // namespace perfbench

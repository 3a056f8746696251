// perfbench_trace: the traced per-layer replay.
//
//   perfbench_trace --workload=W --seed=S --seconds=T --dir=D
//                   [--input=edges.bin --expect=a,b,...]   (file_kcover)
//                   [--probe=probe.txt --load=load.json]   (wire_ingest)
//
// Replays the workload's seeded inputs through each layer's public
// functions, recording a span around every call (spans live only in this
// file; the program under test is not instrumented). file_kcover replays
// the edge file through StreamEngine + SubsampleSketch::update_chunk, the
// SIMD chunk-entry hash sweep, snapshot save/load, the solver, and the
// distributed path over the same file: hash-routed shard passes, shard
// validation and the hierarchical merge. wire_ingest replays the probe
// script the load generator sent serially to the shipped server on
// identical in-process twins: execute_fleet_batch on one
// fleet, the matching SketchFleet call on a second, update_chunk and the
// publish copy on a bare sketch. Self times are differences of inclusive
// spans: round trip - execute = transport, execute - fleet = parse,
// fleet ingest - (update_chunk + copy) = the fleet's own work.
//
// Layers a workload does not use report 0. Writes every span to
// D/trace_spans.txt and prints a per-span-name breakdown, then one JSON
// object (per-layer metrics, named as in BENCHMARK.json) as the last line.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/distributed.hpp"
#include "core/streaming_kcover.hpp"
#include "core/subsample_sketch.hpp"
#include "hash/simd/cpu_features.hpp"
#include "hash/simd/kernels.hpp"
#include "inputs.hpp"
#include "report.hpp"
#include "scenario.hpp"
#include "serve/net_server.hpp"
#include "serve/sketch_fleet.hpp"
#include "sketch/substrate/snapshot.hpp"
#include "solve/solver.hpp"
#include "stream/file_stream.hpp"
#include "stream/stream_engine.hpp"

namespace perfbench {
namespace {

using covstream::Edge;
using covstream::SetId;
using covstream::SubsampleSketch;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string dir = ".";
  std::string input;
  std::string expect;
  std::string probe;
  std::string load;
};

/// Every per-layer metric, zero unless the workload's replay measures it.
const char* const kMetrics[] = {
    "stream.read_ms", "stream.edges_read", "hash.sweep_ms", "sketch.admit_ms",
    "sketch.admit_ns_per_edge", "sketch.keep_ratio", "sketch.space_words",
    "sketch.p_star", "snapshot.save_ms", "snapshot.load_ms", "snapshot.bytes",
    "solve.index_ms", "solve.greedy_ms", "solve.cache_hit_ratio",
    "dist.worker_pass_ms", "dist.shard_skew", "dist.validate_ms", "dist.merge_ms",
    "fleet.ingest_ms", "fleet.publish_ms", "fleet.publishes", "fleet.publish_words",
    "fleet.estimate_batch_us", "fleet.solve_ms", "dispatch.execute_us",
    "dispatch.parse_us", "dispatch.batched_ratio", "dispatch.coalesced_ingest_lines",
    "net.transport_us", "net.wakeups_per_req", "net.pool_pending_max",
    "gen.late_p99_ms", "trace.overhead_pct"};

struct Result {
  std::map<std::string, double> metrics;
  std::string verify_error;
  std::vector<std::string> notes;  // printed lines (breakdown, flags)
};

/// Durations (ns) of every span called `name`.
std::vector<double> durations(const SpanLog& log, const char* name) {
  std::vector<double> out;
  for (const auto& s : log.spans()) {
    if (std::string(s.name) == name) out.push_back(s.dur_ns());
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

/// Per span name: count, inclusive total, self total — and a flag for any
/// name whose median self time is negative beyond noise (a replay whose
/// twins were not faithful).
void breakdown(const SpanLog& log, Result* r) {
  const std::vector<double> self = log.self_ns();
  std::map<std::string, std::vector<std::size_t>> by_name;
  std::map<std::string, bool> has_children;
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    by_name[log.spans()[i].name].push_back(i);
    if (log.spans()[i].parent >= 0) {
      has_children[log.at(log.spans()[i].parent).name] = true;
    }
  }
  char line[256];
  r->notes.push_back("trace breakdown (span, count, inclusive ms, self ms, negative selfs):");
  for (const auto& [name, ids] : by_name) {
    std::vector<double> incl, selfs;
    std::size_t negative = 0;
    for (const std::size_t i : ids) {
      incl.push_back(log.spans()[i].dur_ns());
      selfs.push_back(self[i]);
      if (self[i] < 0) ++negative;
    }
    std::snprintf(line, sizeof line, "  %-24s %7zu %12.3f %12.3f %7zu", name.c_str(),
                  ids.size(), sum(incl) / 1e6, sum(selfs) / 1e6, negative);
    r->notes.push_back(line);
    // Twins are separate objects timed one after another, so each child is
    // measured with its own cache state: allow 15% of the parent (and 2 us)
    // before calling a negative self time a replay fault.
    const double med_self = median(selfs);
    const double noise = std::max(2000.0, 0.15 * median(incl));
    if (has_children[name] && med_self < -noise) {
      std::snprintf(line, sizeof line,
                    "FLAG: span %s has median self time %.3f us < 0: its twins "
                    "did not replay the same work",
                    name.c_str(), med_self / 1e3);
      r->notes.push_back(line);
      r->metrics["trace.unfaithful_spans"] += 1;
    }
  }
}

std::vector<std::uint32_t> parse_ids(const std::string& text) {
  std::vector<std::uint32_t> ids;
  std::stringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty()) ids.push_back(static_cast<std::uint32_t>(std::stoul(token)));
  }
  return ids;
}

// ------------------------------------------------------------------ batch --

covstream::SketchParams batch_params() {
  const BatchSpec spec;
  covstream::StreamingOptions options;
  options.eps = spec.eps;
  options.seed = spec.sketch_seed;
  return options.sketch_params(spec.n, spec.k);
}

/// One pass of the edge file through the stream engine into a fresh sketch
/// (what `--cmd=ingest` and `--cmd=worker` run). Traced: a root span around
/// StreamEngine::run, one span per delivered chunk around the sink, and one
/// around update_chunk inside it.
struct Pass {
  SubsampleSketch sketch;
  covstream::StreamEngine::PassStats stats;
};

Pass stream_pass(const std::string& path, SpanLog& log, const char* root,
                 const covstream::EdgeFilter& filter) {
  Pass pass{SubsampleSketch(batch_params()), {}};
  covstream::BinaryFileStream stream(path);
  const covstream::StreamEngine engine({0, nullptr});
  const Scoped run(log, root, -1, -1);
  pass.stats = engine.run(stream, filter, [&](std::span<const Edge> chunk) {
    const Scoped sink(log, "stream.sink", run.id(), -1);
    const Scoped admit(log, "sketch.update_chunk", sink.id(), -1);
    pass.sketch.update_chunk(chunk);
  });
  return pass;
}

/// The sink-free cost of the engine: inclusive run minus its sink spans.
double stream_self_ms(const SpanLog& log, const char* root) {
  double total = 0.0;
  const std::vector<double> self = log.self_ns();
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    if (std::string(log.spans()[i].name) == root) total += self[i];
  }
  return total / 1e6;
}

void solve_replay(const SubsampleSketch& sketch, std::uint32_t k, SpanLog& log,
                  Result* r, const std::string& expect) {
  std::vector<double> index_ms, greedy_ms;
  for (int rep = 0; rep < 5; ++rep) {
    Clock::time_point t0 = Clock::now();
    const std::int64_t id = log.begin("solve.index", -1, rep);
    const covstream::SketchView view = sketch.view();
    covstream::Solver solver(view);
    log.end(id);
    index_ms.push_back(ms_since(t0));
    t0 = Clock::now();
    const std::int64_t g = log.begin("solve.greedy", -1, rep);
    const covstream::GreedyResult result = solver.max_cover(k);
    log.end(g);
    greedy_ms.push_back(ms_since(t0));
    const std::vector<std::uint32_t> want = parse_ids(expect);
    if (rep == 0 && std::vector<std::uint32_t>(result.solution.begin(),
                                               result.solution.end()) != want) {
      r->verify_error = "replayed solve differs from the CLI's solution";
    }
  }
  r->metrics["solve.index_ms"] = median(index_ms);
  r->metrics["solve.greedy_ms"] = median(greedy_ms);
}

void sketch_metrics(const SubsampleSketch& sketch, std::size_t offered, SpanLog& log,
                    Result* r) {
  const std::vector<double> admit = durations(log, "sketch.update_chunk");
  r->metrics["sketch.admit_ms"] = mean(admit) / 1e6;
  r->metrics["sketch.keep_ratio"] =
      static_cast<double>(sketch.stored_edges()) / static_cast<double>(offered);
  r->metrics["sketch.space_words"] = static_cast<double>(sketch.space_words());
  r->metrics["sketch.p_star"] = sketch.p_star();
}

/// The replayed SIMD chunk-entry sweep (elems + keys + set-bound check) over
/// the whole file in engine-sized chunks, through the dispatched kernel.
double hash_sweep_ms(const std::vector<Edge>& edges, SpanLog& log) {
  const covstream::SketchParams params = batch_params();
  const covstream::Mix64Hash hash(params.hash_seed);
  const std::size_t chunk = covstream::StreamEngine::kDefaultBatchEdges;
  std::vector<std::uint64_t> elems(chunk), keys(chunk);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t at = 0; at < edges.size(); at += chunk) {
    const std::size_t len = std::min(chunk, edges.size() - at);
    const Scoped span(log, "hash.sweep", -1, -1);
    if (!covstream::simd::kernels().hash_edges_u64(edges.data() + at, elems.data(),
                                                   keys.data(), len, hash.salt(),
                                                   params.num_sets)) {
      return -1.0;
    }
  }
  return ms_since(t0);
}

Result run_batch(const Args& a) {
  Result r;
  const BatchSpec spec;
  std::vector<Pair> pairs;
  if (!read_edge_file(a.input, &pairs)) {
    r.verify_error = "cannot read " + a.input;
    return r;
  }
  std::vector<Edge> edges;
  edges.reserve(pairs.size());
  for (const Pair& p : pairs) edges.push_back({p.set, p.elem});
  pairs.clear();
  pairs.shrink_to_fit();

  // The job's ingest side, one pass per round. Untraced and traced rounds
  // alternate; the traced ones give the spans.
  SpanLog log(true);
  std::vector<double> untraced_ms, traced_ms;
  std::optional<Pass> last;
  const Clock::time_point budget_start = Clock::now();
  SpanLog off(false);
  auto timed_pass = [&](SpanLog& pass_log) {
    const Clock::time_point t0 = Clock::now();
    Pass pass = stream_pass(a.input, pass_log, "stream.run", {});
    const double ms = ms_since(t0);
    if (pass_log.enabled()) last = std::move(pass);
    return ms;
  };
  for (int i = 0; i < 3 || (i < 13 && ms_since(budget_start) < a.seconds * 300.0); ++i) {
    if (i % 2 == 0) untraced_ms.push_back(timed_pass(off));
    traced_ms.push_back(timed_pass(log));
    if (i % 2 == 1) untraced_ms.push_back(timed_pass(off));
  }
  const double rounds = static_cast<double>(traced_ms.size());
  r.metrics["trace.overhead_pct"] =
      100.0 * (median(traced_ms) - median(untraced_ms)) / median(untraced_ms);
  const std::size_t offered = last->stats.edges_kept;
  r.metrics["stream.read_ms"] = stream_self_ms(log, "stream.run") / rounds;
  r.metrics["stream.edges_read"] = static_cast<double>(last->stats.edges_read);
  r.metrics["sketch.admit_ns_per_edge"] =
      sum(durations(log, "sketch.update_chunk")) / rounds / static_cast<double>(offered);
  sketch_metrics(last->sketch, offered, log, &r);

  std::vector<double> sweeps;
  for (int i = 0; i < 3; ++i) sweeps.push_back(hash_sweep_ms(edges, log));
  r.metrics["hash.sweep_ms"] = median(sweeps);
  if (median(sweeps) < 0) r.verify_error = "hash sweep rejected a valid set id";

  // The snapshot the job's ingest writes and its solve reads back.
  const std::string snap = a.dir + "/trace.snap";
  std::vector<double> save_ms, load_ms;
  std::optional<SubsampleSketch> loaded;
  for (int rep = 0; rep < 3; ++rep) {
    Clock::time_point t0 = Clock::now();
    { const Scoped s(log, "snapshot.save", -1, rep);
      if (!covstream::save_snapshot(last->sketch, snap)) r.verify_error = "snapshot save failed"; }
    save_ms.push_back(ms_since(t0));
    t0 = Clock::now();
    { const Scoped s(log, "snapshot.load", -1, rep);
      loaded = covstream::load_snapshot<SubsampleSketch>(snap); }
    load_ms.push_back(ms_since(t0));
  }
  r.metrics["snapshot.save_ms"] = median(save_ms);
  r.metrics["snapshot.load_ms"] = median(load_ms);
  r.metrics["snapshot.bytes"] = static_cast<double>(std::filesystem::file_size(snap));
  if (!loaded) {
    r.verify_error = "snapshot load failed";
    return r;
  }
  solve_replay(*loaded, spec.k, log, &r, a.expect);

  // The distributed path over the same file (what `--cmd=worker` x 4 and
  // `--cmd=coordinator` run): hash-routed shard passes, shard-set
  // validation, the hierarchical merge on a pool. The merged sketch must
  // solve exactly like the single-stream one.
  constexpr std::uint32_t kShards = 4;
  const covstream::SketchParams params = batch_params();
  std::vector<double> slowest_ms;
  std::vector<covstream::ShardSnapshot> shard_set;
  for (int round = 0; round < 3; ++round) {
    shard_set.clear();
    double slowest = 0.0;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      covstream::ShardManifest m;
      m.shard_id = s;
      m.shard_count = kShards;
      m.routing = covstream::ShardRouting::kByElementHash;
      m.router_seed = covstream::shard_router_seed(params);
      const Clock::time_point t0 = Clock::now();
      Pass pass = stream_pass(a.input, log, "dist.worker",
                              covstream::shard_ownership_filter(m));
      slowest = std::max(slowest, ms_since(t0));
      m.edges_ingested = pass.stats.edges_kept;
      shard_set.push_back({m, std::move(pass.sketch)});
    }
    slowest_ms.push_back(slowest);
  }
  r.metrics["dist.worker_pass_ms"] = median(slowest_ms);
  double kept_max = 0.0, kept_sum = 0.0;
  for (const auto& shard : shard_set) {
    kept_max = std::max(kept_max, static_cast<double>(shard.sketch.stored_edges()));
    kept_sum += static_cast<double>(shard.sketch.stored_edges());
  }
  r.metrics["dist.shard_skew"] = kept_max / (kept_sum / kShards);
  Clock::time_point t0 = Clock::now();
  { const Scoped span(log, "dist.validate", -1, -1);
    std::string error;
    if (!covstream::validate_shard_set(shard_set, &error)) r.verify_error = error; }
  r.metrics["dist.validate_ms"] = ms_since(t0);
  std::vector<SubsampleSketch> sketches;
  for (auto& shard : shard_set) sketches.push_back(std::move(shard.sketch));
  covstream::ThreadPool pool(kShards);
  t0 = Clock::now();
  std::optional<SubsampleSketch> merged;
  { const Scoped span(log, "dist.merge", -1, -1);
    merged = covstream::hierarchical_merge(std::move(sketches), 2, &pool); }
  r.metrics["dist.merge_ms"] = ms_since(t0);
  Result merged_solve;
  solve_replay(*merged, spec.k, log, &merged_solve, a.expect);
  if (!merged_solve.verify_error.empty() && r.verify_error.empty()) {
    r.verify_error = "merged shard sketch solves differently from single-stream";
  }

  breakdown(log, &r);
  log.write(a.dir + "/trace_spans.txt");
  return r;
}

// ------------------------------------------------------------------ serve --

struct Op {
  enum Kind { kIngest, kEstimate, kSolve } kind = kIngest;
  std::size_t tenant = 0;
  std::vector<Edge> edges;
  std::vector<SetId> family;
  std::uint32_t k = 0;
};

Op parse_op(const Request& req, const std::vector<TenantSpec>& tenants) {
  std::stringstream in(req.line);
  std::string cmd, tenant;
  in >> cmd >> tenant;
  Op op;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    if (tenants[t].name == tenant) op.tenant = t;
  }
  if (cmd == "ingest") {
    std::uint64_t s = 0, e = 0;
    while (in >> s >> e) op.edges.push_back({static_cast<SetId>(s), e});
  } else if (cmd == "estimate") {
    std::string ids;
    in >> ids;
    for (const std::uint32_t id : parse_ids(ids)) op.family.push_back(id);
    op.kind = Op::kEstimate;
  } else {
    in >> op.k;
    op.kind = Op::kSolve;
  }
  return op;
}

/// Three identical twins of the server's state after set-up: a fleet
/// driven through execute_fleet_batch, a fleet driven directly, and bare
/// sketches (update_chunk + the publish copy).
struct Twins {
  std::unique_ptr<covstream::SketchFleet> exec;
  std::unique_ptr<covstream::SketchFleet> fleet;
  std::vector<SubsampleSketch> sketches;
  std::vector<std::shared_ptr<const SubsampleSketch>> handles;  // published copies
  std::vector<bool> written;  // per tenant: a write since its last bare solve
};

Twins make_twins(const std::vector<TenantSpec>& tenants,
                 const std::vector<std::vector<Edge>>& prefill) {
  Twins tw;
  tw.exec = std::make_unique<covstream::SketchFleet>(covstream::SketchFleet::Options{});
  tw.fleet = std::make_unique<covstream::SketchFleet>(covstream::SketchFleet::Options{});
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const TenantSpec& spec = tenants[t];
    covstream::StreamingOptions options;
    options.eps = kTenantEps;
    options.seed = kTenantSeed;
    const covstream::SketchParams params = options.sketch_params(spec.n, spec.k);
    std::string error;
    tw.exec->create(spec.name, params, &error);
    tw.fleet->create(spec.name, params, &error);
    tw.sketches.emplace_back(params);
    const std::vector<Edge>& edges = prefill[t];
    constexpr std::size_t kChunk = 1 << 16;
    for (std::size_t at = 0; at < edges.size(); at += kChunk) {
      const std::span<const Edge> chunk(edges.data() + at,
                                        std::min(kChunk, edges.size() - at));
      tw.exec->ingest(spec.name, chunk, &error);
      tw.fleet->ingest(spec.name, chunk, &error);
      tw.sketches[t].update_chunk(chunk);
    }
    tw.handles.push_back(std::make_shared<const SubsampleSketch>(tw.sketches[t]));
    tw.written.push_back(true);
  }
  return tw;
}

struct ProbeLine {
  double rt_us = 0.0;
  std::string response;
};

std::vector<ProbeLine> read_probe(const std::string& path) {
  std::vector<ProbeLine> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::stringstream fields(line);
    std::size_t id = 0;
    ProbeLine p;
    fields >> id >> p.rt_us;
    fields.get();
    std::getline(fields, p.response);
    out.push_back(p);
  }
  return out;
}

/// Pulls `"key":number` out of the load generator's JSON line.
double json_number(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\"" + key + "\":");
  if (at == std::string::npos) return 0.0;
  return std::atof(text.c_str() + at + key.size() + 3);
}

/// The fleet-side twins of one request: the SketchFleet call on the second
/// fleet, and for ingest update_chunk + the publish copy on the bare sketch
/// (children of `parent`, the request's execute span), plus the requests'
/// own hash sweep and cold solve as separate root spans.
void replay_inner(const Op& op, std::int64_t parent, std::int64_t req, Twins& tw,
                  const std::vector<TenantSpec>& tenants, SpanLog& log,
                  std::vector<double>* copy_words) {
  const std::string& name = tenants[op.tenant].name;
  std::string error;
  if (op.kind == Op::kIngest) {
    const std::int64_t f = log.begin("fleet.ingest", parent, req);
    auto fleet_ingest = [&] {
      log.restart(f);
      tw.fleet->ingest(name, op.edges, &error);
      log.end(f);
    };
    // Like execute vs. the inner twins: alternate which twin goes first.
    if (req % 4 < 2) fleet_ingest();
    SubsampleSketch& sketch = tw.sketches[op.tenant];
    { const Scoped s(log, "sketch.update_chunk", f, req);
      sketch.update_chunk(op.edges); }
    { // Publish as the fleet does: the fresh copy replaces the handle.
      const Scoped s(log, "fleet.publish_copy", f, req);
      tw.handles[op.tenant] = std::make_shared<const SubsampleSketch>(sketch); }
    if (req % 4 >= 2) fleet_ingest();
    tw.written[op.tenant] = true;
    copy_words->push_back(static_cast<double>(sketch.space_words()));
    // The chunk-entry hash sweep of this batch, replayed on its own.
    const covstream::Mix64Hash hash(sketch.params().hash_seed);
    std::vector<std::uint64_t> elems(op.edges.size()), keys(op.edges.size());
    const Scoped s(log, "hash.sweep", -1, req);
    covstream::simd::kernels().hash_edges_u64(op.edges.data(), elems.data(),
                                              keys.data(), op.edges.size(),
                                              hash.salt(), sketch.params().num_sets);
  } else if (op.kind == Op::kEstimate) {
    const std::int64_t f = log.begin("fleet.estimate_batch", parent, req);
    std::vector<covstream::SketchFleet::EstimateOutcome> outcomes;
    const std::vector<std::vector<SetId>> families = {op.family};
    tw.fleet->estimate_batch(name, families, &outcomes, &error);
    log.end(f);
  } else {
    const std::int64_t f = log.begin("fleet.solve", parent, req);
    tw.fleet->solve(name, op.k, &error);
    log.end(f);
    // The cold solve the fleet pays after a write, on the bare twin; a
    // repeat before the next write is a solver-cache hit and has none.
    if (!tw.written[op.tenant]) return;
    tw.written[op.tenant] = false;
    const std::int64_t idx = log.begin("solve.index", -1, req);
    const covstream::SketchView view = tw.sketches[op.tenant].view();
    covstream::Solver solver(view);
    log.end(idx);
    const Scoped g(log, "solve.greedy", -1, req);
    solver.max_cover(op.k);
  }
}

/// Replays the probe on `tw`. With tracing on, records per request the
/// server's round trip (from the probe file) as the root, execute_fleet_batch
/// under it, and the fleet-side twins under that.
double replay(const std::vector<Request>& probe, const std::vector<Op>& ops,
              const std::vector<ProbeLine>& seen, Twins& tw,
              const std::vector<TenantSpec>& tenants,
              SpanLog& log, Result* r) {
  const Clock::time_point t0 = Clock::now();
  std::vector<double> copy_words;
  for (std::size_t i = 0; i < probe.size(); ++i) {
    const auto req = static_cast<std::int64_t>(i);
    const std::int64_t start = log.now_ns();
    const std::int64_t rt = log.add("net.round_trip", start,
                                    start + static_cast<std::int64_t>(seen[i].rt_us * 1e3),
                                    -1, req);
    const std::int64_t exec = log.begin("dispatch.execute", rt, req);
    auto execute = [&] {
      log.restart(exec);
      const covstream::FleetBatchRequest batch[1] = {{probe[i].line, Clock::now()}};
      const covstream::FleetBatchResult result =
          covstream::execute_fleet_batch(*tw.exec, batch, 0);
      log.end(exec);
      if (result.responses != seen[i].response + "\n" && r->verify_error.empty()) {
        r->verify_error = "request " + std::to_string(i) + " '" +
                          probe[i].line.substr(0, 40) + "': server answered '" +
                          seen[i].response + "', twin '" + result.responses + "'";
      }
    };
    // Odd requests time the inner twins before the outer one, so which twin
    // runs with warmer caches alternates instead of biasing one layer.
    if (i % 2 == 0) execute();
    replay_inner(ops[i], exec, req, tw, tenants, log, &copy_words);
    if (i % 2 == 1) execute();
  }
  if (log.enabled()) r->metrics["fleet.publish_words"] = mean(copy_words);
  return ms_since(t0);
}

Result run_serve(const Args& a) {
  Result r;
  ScenarioState state(a.seed);
  const std::vector<TenantSpec>& tenants = state.tenants;
  std::vector<std::vector<Edge>> prefill(tenants.size());
  for (const Request& req : state.setup_requests()) {
    if (req.line.rfind("ingest ", 0) != 0) continue;
    const Op op = parse_op(req, tenants);
    prefill[op.tenant].insert(prefill[op.tenant].end(), op.edges.begin(), op.edges.end());
  }
  const std::vector<Request> probe = state.probe_requests();
  std::vector<Op> ops;
  for (const Request& req : probe) ops.push_back(parse_op(req, tenants));
  const std::vector<ProbeLine> seen = read_probe(a.probe);
  if (seen.size() != probe.size()) {
    r.verify_error = "probe file has " + std::to_string(seen.size()) + " of " +
                     std::to_string(probe.size()) + " requests";
    return r;
  }

  // Untraced and traced replays alternate, each on fresh twins, after one
  // warm-up replay; the difference of their median walls is the tracing
  // overhead. The last traced replay's spans are the ones reported.
  std::vector<double> untraced_ms, traced_ms;
  {
    Twins warm = make_twins(tenants, prefill);
    SpanLog off(false);
    replay(probe, ops, seen, warm, tenants, off, &r);
  }
  SpanLog log(true);
  Twins tw;
  for (int round = 0; round < 3; ++round) {
    {
      Twins plain = make_twins(tenants, prefill);
      SpanLog off(false);
      untraced_ms.push_back(replay(probe, ops, seen, plain, tenants, off, &r));
    }
    log = SpanLog(true);
    tw = make_twins(tenants, prefill);
    traced_ms.push_back(replay(probe, ops, seen, tw, tenants, log, &r));
  }
  r.metrics["trace.overhead_pct"] =
      100.0 * (median(traced_ms) - median(untraced_ms)) / median(untraced_ms);

  // Per-request self times along the chain round trip > execute > fleet.
  const std::vector<double> self = log.self_ns();
  std::vector<double> transport_us, parse_us, execute_us;
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const auto& s = log.spans()[i];
    by_name[s.name].push_back(s.dur_ns());
    if (std::string(s.name) == "net.round_trip") transport_us.push_back(self[i] / 1e3);
    if (std::string(s.name) == "dispatch.execute") {
      parse_us.push_back(self[i] / 1e3);
      execute_us.push_back(s.dur_ns() / 1e3);
    }
  }
  // Costs are means per call (the probe mixes tenant sizes, so a median
  // would pick one size); self times, differences of two twins, are medians.
  r.metrics["net.transport_us"] = median(transport_us);
  r.metrics["dispatch.execute_us"] = mean(execute_us);
  r.metrics["dispatch.parse_us"] = median(parse_us);
  r.metrics["fleet.ingest_ms"] = mean(by_name["fleet.ingest"]) / 1e6;
  r.metrics["fleet.publish_ms"] = mean(by_name["fleet.publish_copy"]) / 1e6;
  r.metrics["fleet.estimate_batch_us"] = mean(by_name["fleet.estimate_batch"]) / 1e3;
  r.metrics["fleet.solve_ms"] = mean(by_name["fleet.solve"]) / 1e6;
  r.metrics["sketch.admit_ms"] = mean(by_name["sketch.update_chunk"]) / 1e6;
  r.metrics["sketch.admit_ns_per_edge"] =
      sum(by_name["sketch.update_chunk"]) /
      static_cast<double>(kLinePairs * by_name["sketch.update_chunk"].size());
  r.metrics["hash.sweep_ms"] = sum(by_name["hash.sweep"]) / 1e6;
  r.metrics["solve.index_ms"] = mean(by_name["solve.index"]) / 1e6;
  r.metrics["solve.greedy_ms"] = mean(by_name["solve.greedy"]) / 1e6;
  double stored = 0.0, offered = 0.0, words = 0.0;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    stored += static_cast<double>(tw.sketches[t].stored_edges());
    offered += static_cast<double>(state.streams[t].consumed());
    words += static_cast<double>(tw.sketches[t].space_words());
  }
  r.metrics["sketch.keep_ratio"] = stored / offered;
  r.metrics["sketch.space_words"] = words;
  r.metrics["sketch.p_star"] = tw.sketches[kCoverTenant].p_star();

  // Counters the load generator read off the live server.
  std::ifstream load_in(a.load);
  std::string load((std::istreambuf_iterator<char>(load_in)), std::istreambuf_iterator<char>());
  r.metrics["solve.cache_hit_ratio"] = json_number(load, "solve_cache_hit_ratio");
  r.metrics["fleet.publishes"] = json_number(load, "fleet_publishes");
  r.metrics["dispatch.batched_ratio"] = json_number(load, "dispatch_batched_ratio");
  r.metrics["dispatch.coalesced_ingest_lines"] = json_number(load, "dispatch_coalesced_ingest_lines");
  r.metrics["net.wakeups_per_req"] = json_number(load, "net_wakeups_per_req");
  r.metrics["net.pool_pending_max"] = json_number(load, "net_pool_pending_max");
  r.metrics["gen.late_p99_ms"] = json_number(load, "late_p99_ms");

  breakdown(log, &r);
  log.write(a.dir + "/trace_spans.txt");
  return r;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2), value = arg.substr(eq + 1);
    if (key == "workload") a->workload = value;
    else if (key == "seed") a->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "seconds") a->seconds = std::atof(value.c_str());
    else if (key == "dir") a->dir = value;
    else if (key == "input") a->input = value;
    else if (key == "expect") a->expect = value;
    else if (key == "probe") a->probe = value;
    else if (key == "load") a->load = value;
    else return false;
  }
  return !a->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr, "usage: perfbench_trace --workload=W --seed=S --seconds=T "
                         "--dir=D [--input=F --expect=IDS] [--probe=F --load=F]\n");
    return 2;
  }
  Result r;
  if (args.workload == "file_kcover") {
    r = run_batch(args);
  } else if (args.workload == "wire_ingest") {
    r = run_serve(args);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  Json metrics;
  for (const char* name : kMetrics) metrics.num(name, r.metrics[name]);
  Json out;
  out.obj("metrics", metrics);
  out.num("unfaithful_spans", r.metrics["trace.unfaithful_spans"]);
  out.str("isa", covstream::isa_name(covstream::active_isa()));
  out.str("cpu_features", covstream::cpu_features().describe());
  out.str("verify_error", r.verify_error);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

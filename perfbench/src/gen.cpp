// perfbench_gen: the batch workloads' seeded input and quality reference.
//
//   perfbench_gen gen    --seed=S --out=edges.bin
//       writes the seeded instance as a covstream binary edge file in
//       arrival order and prints {"edges"} as JSON.
//   perfbench_gen greedy --seed=S
//       prints {"greedy_coverage"}: the offline greedy's true k-cover of the
//       same seeded instance, the reference of cover_ratio.
//   perfbench_gen cover --input=edges.bin --sets=a,b,c
//       prints {"coverage"}: the true coverage of the chosen sets.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "report.hpp"

namespace {

const char* flag(int argc, char** argv, const char* key) {
  const std::string prefix = std::string("--") + key + "=";
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]).rfind(prefix, 0) == 0) return argv[i] + prefix.size();
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::string cmd = argc > 1 ? argv[1] : "";
  const BatchSpec spec;
  Json out;
  if (cmd == "gen" && flag(argc, argv, "seed") && flag(argc, argv, "out")) {
    const std::uint64_t seed = std::strtoull(flag(argc, argv, "seed"), nullptr, 10);
    const SetLists sets = make_batch_sets(seed, spec);
    const std::vector<Pair> edges = arrival_order(sets, seed);
    if (!write_edge_file(flag(argc, argv, "out"), edges)) {
      std::fprintf(stderr, "cannot write %s\n", flag(argc, argv, "out"));
      return 1;
    }
    out.num("edges", static_cast<double>(edges.size()));
  } else if (cmd == "greedy" && flag(argc, argv, "seed")) {
    const std::uint64_t seed = std::strtoull(flag(argc, argv, "seed"), nullptr, 10);
    const SetLists sets = make_batch_sets(seed, spec);
    out.num("greedy_coverage", static_cast<double>(greedy_coverage(sets, spec.k)));
  } else if (cmd == "cover" && flag(argc, argv, "input") && flag(argc, argv, "sets")) {
    std::vector<Pair> edges;
    if (!read_edge_file(flag(argc, argv, "input"), &edges)) {
      std::fprintf(stderr, "cannot read %s\n", flag(argc, argv, "input"));
      return 1;
    }
    std::vector<std::uint32_t> chosen;
    for (const char* p = flag(argc, argv, "sets"); *p != '\0';) {
      char* end = nullptr;
      chosen.push_back(static_cast<std::uint32_t>(std::strtoul(p, &end, 10)));
      if (end == p) break;
      p = *end == ',' ? end + 1 : end;
    }
    out.num("coverage",
            static_cast<double>(true_coverage(sets_from_edges(edges, spec.n), chosen)));
  } else {
    std::fprintf(stderr,
                 "usage: perfbench_gen gen --seed=S --out=F | greedy --seed=S | "
                 "cover --input=F --sets=a,b,...\n");
    return 2;
  }
  std::printf("%s\n", out.text().c_str());
  return 0;
}

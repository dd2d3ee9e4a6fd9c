#include "check/corpus.hpp"

#include "graph/generators.hpp"
#include "graph/transform.hpp"

namespace apgre {

std::vector<CorpusCase> graph_corpus(std::uint64_t seed, bool tiny) {
  const Vertex n = tiny ? 60 : 600;
  const Vertex pendants = tiny ? 15 : 150;
  std::vector<CorpusCase> cases;
  cases.push_back({"erdos_undirected",
                   erdos_renyi(n, static_cast<EdgeId>(2) * n, false, seed)});
  cases.push_back({"erdos_directed",
                   erdos_renyi(n, static_cast<EdgeId>(2) * n, true, seed + 1)});
  cases.push_back({"erdos_sparse_undirected",
                   erdos_renyi(n, n, false, seed + 2)});
  cases.push_back({"erdos_sparse_directed",
                   erdos_renyi(n, n, true, seed + 3)});
  cases.push_back({"barabasi", barabasi_albert(n, 2, seed + 4)});
  cases.push_back(
      {"barabasi_pendants",
       attach_pendants(barabasi_albert(n, 2, seed + 5), pendants, seed + 6)});
  cases.push_back({"tree", random_tree(n, seed + 7)});
  cases.push_back({"caveman", caveman(tiny ? 4 : 20, tiny ? 8 : 12, seed + 8)});
  cases.push_back({"grid", road_grid(tiny ? 6 : 20, tiny ? 8 : 25, 0.2, 0.1,
                                     seed + 9)});
  cases.push_back(
      {"rmat_directed",
       rmat(tiny ? 5 : 9, 4, 0.45, 0.2, 0.2, /*symmetric=*/false, seed + 10)});
  cases.push_back(
      {"rmat_pendants_directed",
       attach_pendants(rmat(tiny ? 5 : 9, 4, 0.45, 0.2, 0.2, false, seed + 11),
                       pendants, seed + 12)});
  cases.push_back({"barbell", barbell(tiny ? 6 : 20, tiny ? 4 : 10)});
  cases.push_back({"satellites",
                   attach_communities(erdos_renyi(n / 2, n, false, seed + 13),
                                      tiny ? 4 : 30, tiny ? 5 : 12, seed + 14)});
  cases.push_back(
      {"satellites_directed",
       attach_communities(rmat(tiny ? 5 : 8, 4, 0.45, 0.2, 0.2, false, seed + 15),
                          tiny ? 4 : 20, tiny ? 5 : 10, seed + 16)});
  cases.push_back({"tendrils",
                   attach_chains(erdos_renyi(n / 2, n, false, seed + 17),
                                 tiny ? 5 : 40, tiny ? 3 : 5, seed + 18)});
  return cases;
}

}  // namespace apgre

#include "workloads.hpp"

#include <cstdlib>
#include <sstream>

#include "graph/generators.hpp"
#include "graph/transform.hpp"

namespace apgre::bench {

namespace {

Vertex scaled(double scale, Vertex base) {
  return std::max<Vertex>(8, static_cast<Vertex>(static_cast<double>(base) * scale));
}

int scaled_pow2(double scale, int base_scale) {
  // R-MAT sizes move in powers of two; shift by log2(scale) rounded.
  int shift = 0;
  while (scale >= 2.0) {
    scale /= 2.0;
    ++shift;
  }
  while (scale > 0.0 && scale <= 0.5) {
    scale *= 2.0;
    --shift;
  }
  return std::max(4, base_scale + shift);
}

}  // namespace

double env_scale() {
  const char* env = std::getenv("APGRE_SCALE");
  if (env == nullptr) return 1.0;
  const double value = std::atof(env);
  return value > 0.0 ? value : 1.0;
}

// Each analogue layers three structural ingredients the paper's originals
// exhibit (§2.2, Figure 7, Table 4):
//   * a biconnected core (BA / R-MAT / caveman / grid),
//   * satellite communities bridged through articulation points
//     -> partial redundancy (common sub-DAGs),
//   * pendant / chain fringes -> total redundancy (derived DAGs).
std::vector<Workload> all_workloads(double s) {
  std::vector<Workload> w;

  // W1 Email-Enron: undirected, power-law, ~1/3 pendants, modest satellite
  // structure (paper: 31% total + 20%-ish partial redundancy).
  w.push_back({"email-enron*", "Email-Enron", "email", false, [s] {
                 CsrGraph g = barabasi_albert(scaled(s, 2200), 5, 101);
                 g = attach_communities(g, scaled(s, 30), 20, 102);
                 return attach_pendants(g, scaled(s, 1100), 103);
               }});
  // W2 Email-EuAll: directed, extremely sparse, 71% total redundancy —
  // a small core drowned in in-degree-0 pendants.
  w.push_back({"email-euall*", "Email-EuAll", "email", true, [s] {
                 CsrGraph g = rmat(scaled_pow2(s, 9), 3, 0.5, 0.2, 0.2, false, 104);
                 g = attach_communities(g, scaled(s, 40), 12, 105);
                 return attach_pendants(g, scaled(s, 3200), 106);
               }});
  // W3 Slashdot0811: directed social graph dominated by one dense
  // biconnected core, few pendants (paper: 35% partial, ~0% total).
  w.push_back({"slashdot*", "Slashdot0811", "social", true, [s] {
                 CsrGraph g = rmat(scaled_pow2(s, 11), 10, 0.45, 0.22, 0.22, false, 107);
                 return attach_communities(g, scaled(s, 8), 30, 108);
               }});
  // W4 soc-DouBan: directed social network, 2/3 pendant fraction.
  w.push_back({"douban*", "soc-DouBan", "social", true, [s] {
                 CsrGraph g = rmat(scaled_pow2(s, 9), 4, 0.45, 0.22, 0.22, false, 109);
                 g = attach_communities(g, scaled(s, 50), 10, 110);
                 return attach_pendants(g, scaled(s, 2400), 111);
               }});
  // W5 WikiTalk: directed communication graph; the paper's best case
  // (80% partial redundancy) — a modest core with a huge articulation
  // fringe of satellite communities plus pendants.
  w.push_back({"wikitalk*", "WikiTalk", "comm", true, [s] {
                 CsrGraph g = rmat(scaled_pow2(s, 9), 6, 0.5, 0.2, 0.2, false, 112);
                 g = attach_communities(g, scaled(s, 60), 24, 113);
                 return attach_pendants(g, scaled(s, 2600), 114);
               }});
  // W6 dblp-2010: a dominant well-connected core community (the paper's
  // top sub-graph holds 45% of the vertices) with many small co-author
  // cliques bridged through articulation points, moderate pendants.
  w.push_back({"dblp*", "dblp-2010", "collab", false, [s] {
                 CsrGraph g = barabasi_albert(scaled(s, 1200), 3, 115);
                 g = attach_communities(g, scaled(s, 150), 8, 116);
                 return attach_pendants(g, scaled(s, 700), 117);
               }});
  // W7 com-youtube: large undirected social graph, ~53% total redundancy.
  w.push_back({"youtube*", "com-youtube", "social", false, [s] {
                 CsrGraph g = barabasi_albert(scaled(s, 2400), 4, 117);
                 g = attach_communities(g, scaled(s, 40), 16, 118);
                 return attach_pendants(g, scaled(s, 2300), 119);
               }});
  // W8 NotreDame: web graph with long tree tendrils around a skewed core
  // (paper: 64% partial redundancy).
  w.push_back({"notredame*", "NotreDame", "web", true, [s] {
                 CsrGraph g = rmat(scaled_pow2(s, 9), 4, 0.52, 0.19, 0.19, false, 120);
                 g = attach_chains(g, scaled(s, 320), 4, 121);
                 g = attach_communities(g, scaled(s, 25), 18, 122);
                 return attach_pendants(g, scaled(s, 800), 123);
               }});
  // W9 web-BerkStan: dense directed web crawl, big biconnected core.
  w.push_back({"berkstan*", "web-BerkStan", "web", true, [s] {
                 CsrGraph g = rmat(scaled_pow2(s, 11), 11, 0.5, 0.2, 0.2, false, 124);
                 g = attach_communities(g, scaled(s, 12), 40, 125);
                 return attach_pendants(g, scaled(s, 650), 126);
               }});
  // W10 web-Google: directed web graph, mixed communities and tendrils.
  w.push_back({"google*", "web-Google", "web", true, [s] {
                 CsrGraph g = rmat(scaled_pow2(s, 10), 6, 0.48, 0.21, 0.21, false, 127);
                 g = attach_communities(g, scaled(s, 35), 20, 128);
                 return attach_pendants(g, scaled(s, 1500), 129);
               }});
  // W11 USA-roadNY: planar-ish grid with dead-end streets (degree-1
  // junctions) and short cul-de-sac chains (paper: 5% partial + 16% total).
  w.push_back({"road-ny*", "USA-roadNY", "road", false, [s] {
                 CsrGraph g = road_grid(scaled(s, 54), scaled(s, 54), 0.30, 0.06, 130);
                 g = attach_chains(g, scaled(s, 140), 2, 131);
                 return attach_pendants(g, scaled(s, 420), 132);
               }});
  // W12 USA-roadBAY: sparser grid, more pruning and more dangles
  // (paper: 13% partial + 23% total).
  w.push_back({"road-bay*", "USA-roadBAY", "road", false, [s] {
                 CsrGraph g = road_grid(scaled(s, 58), scaled(s, 52), 0.18, 0.10, 133);
                 g = attach_chains(g, scaled(s, 260), 2, 134);
                 return attach_pendants(g, scaled(s, 560), 135);
               }});
  return w;
}

std::vector<Workload> selected_workloads() {
  auto all = all_workloads(env_scale());
  const char* env = std::getenv("APGRE_WORKLOADS");
  if (env == nullptr || *env == '\0') return all;

  std::vector<std::string> wanted;
  std::stringstream ss(env);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) wanted.push_back(token);
  }
  std::vector<Workload> filtered;
  for (auto& w : all) {
    for (const auto& pattern : wanted) {
      if (w.id.find(pattern) != std::string::npos) {
        filtered.push_back(w);
        break;
      }
    }
  }
  return filtered.empty() ? all : filtered;
}

Workload dblp_workload(double scale) { return all_workloads(scale)[5]; }

}  // namespace apgre::bench

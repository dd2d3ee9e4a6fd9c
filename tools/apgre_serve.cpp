// apgre_serve: line-oriented JSON front-end for apgre::Service.
//
// Reads one JSON request object per line from stdin and writes one JSON
// response object per line to stdout, so recorded load can be replayed
// from a file (`apgre_serve < transcript.jsonl`). Responses are emitted in
// request order; objects serialize key-sorted (support/json), so a replay
// is byte-stable — timing fields are only included under --timing.
//
// Protocol (docs/API.md "Serving requests" + "Protocol v2"):
//   {"op":"register","graph":"g","edges":[[0,1],...],"vertices":4,
//    "directed":false}            or  {...,"path":"graph.snap"}
//   {"op":"solve","graph":"g","algorithm":"apgre","threads":0,
//    "undirected_halving":false,"samples":0,"seed":1}
//   {"op":"top_k","graph":"g","k":5,...solve fields...}
//   {"op":"update","graph":"g","u":0,"v":2,"insert":true}
//   {"op":"batch_update","graph":"g",
//    "ops":[{"u":0,"v":2,"insert":true,"w":1.0,"t":0},...]}
//                                  or  {...,"path":"stream.apgb"}  (binary
//                                  edge-batch frames, one batch per frame,
//                                  applied in file order)
//   {"op":"batch","requests":[...solve/top_k/update/batch_update...]}
//   {"op":"unregister","graph":"g"} | {"op":"graphs"} | {"op":"stats"} |
//   {"op":"evict"} | {"op":"quit"}
//
// Versioning: every request may carry "v" (1 when absent). v1 requests are
// answered byte-identically to the pre-batch protocol; "v":2 requests get
// the same reply plus an echoed "v":2 key. batch_update is the v2 verb but
// is accepted under either framing. Unsupported versions answer an error.
// Exception: the legacy `update` verb spends "v" on an edge endpoint, so
// it is always treated as protocol v1.
//
// Integer fields (vertex ids, "vertices", "threads", "samples", "seed",
// "k", "t", "v") must be finite integral numbers in the field's range;
// anything else is a request error, never a silent conversion.
//
// Malformed lines and failed requests answer {"ok":false,"error":...} and
// the server keeps reading. Exit codes: 0 on EOF or quit, 2 on usage
// errors (including --workers outside [1, 1024] and --capacity below 1;
// both are checked before any worker starts).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bc/bc.hpp"
#include "graph/csr.hpp"
#include "graph/io_snap.hpp"
#include "graph/update.hpp"
#include "service/service.hpp"
#include "support/error.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"

namespace apgre {
namespace {

/// The one conversion of a wire number to an integer field. JSON numbers
/// arrive as doubles, and casting a non-finite, fractional or out-of-range
/// double to an integer type is undefined, so each of those throws.
template <typename T>
T as_integer(const JsonValue& value, const std::string& what) {
  const double d = value.as_double();
  if constexpr (std::is_unsigned_v<T>) {
    APGRE_REQUIRE(!(d < 0.0), what + " must be non-negative");
  }
  // 2^digits is exact in a double and is the first value past T's max.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  APGRE_REQUIRE(std::isfinite(d) && std::trunc(d) == d && d >= -limit &&
                    d < limit,
                what + " must be an integer in [" +
                    std::to_string(std::numeric_limits<T>::min()) + ", " +
                    std::to_string(std::numeric_limits<T>::max()) + "]");
  return static_cast<T>(d);
}

/// An optional integer field of a request object.
template <typename T>
T integer_field(const JsonValue& obj, const std::string& key, T fallback) {
  return obj.contains(key) ? as_integer<T>(obj.at(key), key) : fallback;
}

Vertex as_vertex(const JsonValue& value) {
  return as_integer<Vertex>(value, "vertex ids");
}

JsonValue error_line(const std::string& why) {
  JsonValue out;
  out["ok"] = JsonValue(false);
  out["error"] = JsonValue(why);
  return out;
}

/// Parse one inline edge op of a batch_update request.
EdgeOp parse_edge_op(const JsonValue& item) {
  EdgeOp op;
  op.u = as_vertex(item.at("u"));
  op.v = as_vertex(item.at("v"));
  if (item.contains("insert")) op.insert = item.at("insert").as_bool();
  if (item.contains("w")) op.weight = item.at("w").as_double();
  if (item.contains("t")) {
    op.timestamp = as_integer<std::uint64_t>(item.at("t"), "timestamps");
  }
  return op;
}

/// Parse the shared solve/top_k/update/batch_update fields of one request
/// object (everything the service executes; admin verbs are handled in
/// serve_line directly).
Request parse_request(const JsonValue& obj, const std::string& op) {
  APGRE_REQUIRE(op == "solve" || op == "top_k" || op == "update" ||
                    op == "batch_update",
                "expected a solve/top_k/update/batch_update request, got op: " +
                    op);
  Request request;
  request.graph = obj.at("graph").as_string();
  if (op == "update") {
    // The single-edge verb is a batch of one.
    request.kind = RequestKind::kUpdate;
    EdgeOp edge;
    edge.u = as_vertex(obj.at("u"));
    edge.v = as_vertex(obj.at("v"));
    if (obj.contains("insert")) edge.insert = obj.at("insert").as_bool();
    request.update.ops.push_back(edge);
    return request;
  }
  if (op == "batch_update") {
    request.kind = RequestKind::kUpdateBatch;
    for (const JsonValue& item : obj.at("ops").as_array()) {
      request.update.ops.push_back(parse_edge_op(item));
    }
    return request;
  }
  request.kind = op == "top_k" ? RequestKind::kTopK : RequestKind::kSolve;
  if (obj.contains("algorithm")) {
    request.options.algorithm =
        algorithm_from_name(obj.at("algorithm").as_string());
  }
  request.options.threads = integer_field<int>(obj, "threads", 0);
  if (obj.contains("undirected_halving")) {
    request.options.undirected_halving =
        obj.at("undirected_halving").as_bool();
  }
  request.options.num_samples = integer_field<Vertex>(obj, "samples", 0);
  request.options.seed = integer_field<std::uint64_t>(obj, "seed", 1);
  if (request.kind == RequestKind::kTopK) {
    request.k = integer_field<Vertex>(obj, "k", 10);
  }
  return request;
}

JsonValue render_response(const Request& request, const Response& response,
                          bool timing) {
  JsonValue out;
  out["ok"] = JsonValue(response.status.ok());
  out["graph"] = JsonValue(request.graph);
  if (!response.status.ok()) {
    out["error"] = JsonValue(response.status.message);
    return out;
  }
  switch (response.kind) {
    case RequestKind::kSolve: {
      out["op"] = JsonValue("solve");
      out["session_hit"] = JsonValue(response.session_hit);
      JsonValue scores;
      for (double score : response.scores) scores.push_back(JsonValue(score));
      out["scores"] = std::move(scores);
      break;
    }
    case RequestKind::kTopK: {
      out["op"] = JsonValue("top_k");
      out["session_hit"] = JsonValue(response.session_hit);
      JsonValue top;
      for (const TopEntry& entry : response.top) {
        JsonValue row;
        row["vertex"] = JsonValue(static_cast<std::uint64_t>(entry.vertex));
        row["score"] = JsonValue(entry.score);
        top.push_back(std::move(row));
      }
      out["top"] = std::move(top);
      break;
    }
    case RequestKind::kUpdate: {
      out["op"] = JsonValue("update");
      out["affected_sources"] =
          JsonValue(static_cast<std::uint64_t>(response.affected_sources));
      out["locality"] = JsonValue(
          response.locality == UpdateLocality::kLocalInsert ? "local_insert"
          : response.locality == UpdateLocality::kLocalDelete
              ? "local_delete"
              : "structural");
      break;
    }
    case RequestKind::kUpdateBatch: {
      out["op"] = JsonValue("batch_update");
      out["affected_sources"] =
          JsonValue(static_cast<std::uint64_t>(response.affected_sources));
      out["batch_edges"] = JsonValue(response.batch.batch_edges);
      out["coalesced_away"] = JsonValue(response.batch.coalesced_away);
      out["blocks_resolved"] = JsonValue(response.batch.blocks_resolved);
      out["downgraded"] = JsonValue(response.batch.batch_downgrades > 0);
      break;
    }
  }
  if (timing) out["seconds"] = JsonValue(response.seconds);
  return out;
}

JsonValue handle_register(Service& service, const JsonValue& obj) {
  const std::string name = obj.at("graph").as_string();
  const bool directed =
      obj.contains("directed") && obj.at("directed").as_bool();
  CsrGraph graph;
  if (obj.contains("path")) {
    graph = read_snap_file(obj.at("path").as_string(), directed).graph;
  } else {
    EdgeList edges;
    Vertex max_vertex = 0;
    for (const JsonValue& pair : obj.at("edges").as_array()) {
      const auto& endpoints = pair.as_array();
      APGRE_REQUIRE(endpoints.size() == 2, "edges must be [u, v] pairs");
      const Edge e{as_vertex(endpoints[0]), as_vertex(endpoints[1])};
      // kInvalidVertex is no vertex, and max_vertex + 1 must not wrap.
      APGRE_REQUIRE(e.src != kInvalidVertex && e.dst != kInvalidVertex,
                    "vertex id " + std::to_string(kInvalidVertex) +
                        " is reserved");
      max_vertex = std::max({max_vertex, e.src, e.dst});
      edges.push_back(e);
    }
    Vertex vertices = integer_field<Vertex>(obj, "vertices", 0);
    if (!edges.empty()) vertices = std::max(vertices, max_vertex + 1);
    graph = directed
                ? CsrGraph::from_edges(vertices, std::move(edges), true)
                : CsrGraph::undirected_from_edges(vertices, std::move(edges));
  }

  const auto vertices = static_cast<std::uint64_t>(graph.num_vertices());
  const std::uint64_t arcs = graph.num_arcs();
  const Status status = service.register_graph(name, std::move(graph));
  if (!status.ok()) return error_line(status.message);
  JsonValue out;
  out["ok"] = JsonValue(true);
  out["op"] = JsonValue("register");
  out["graph"] = JsonValue(name);
  out["vertices"] = JsonValue(vertices);
  out["arcs"] = JsonValue(arcs);
  return out;
}

/// Path-based batch_update: apply each binary frame of the replay file as
/// one batch, in file order, stopping at the first failure.
JsonValue handle_batch_file(Service& service, const JsonValue& obj) {
  const std::string graph = obj.at("graph").as_string();
  const std::vector<UpdateRequest> frames =
      read_edge_batch_file(obj.at("path").as_string());
  Request request;
  request.kind = RequestKind::kUpdateBatch;
  request.graph = graph;
  BatchStats total;
  Vertex affected = 0;
  bool downgraded = false;
  std::uint64_t frames_applied = 0;
  for (const UpdateRequest& frame : frames) {
    request.update = frame;
    const Response response = service.handle(request);
    if (!response.status.ok()) return error_line(response.status.message);
    total.batch_edges += response.batch.batch_edges;
    total.coalesced_away += response.batch.coalesced_away;
    total.blocks_resolved += response.batch.blocks_resolved;
    total.batch_downgrades += response.batch.batch_downgrades;
    affected += response.affected_sources;
    downgraded |= response.batch.batch_downgrades > 0;
    ++frames_applied;
  }
  JsonValue out;
  out["ok"] = JsonValue(true);
  out["op"] = JsonValue("batch_update");
  out["graph"] = JsonValue(graph);
  out["frames"] = JsonValue(frames_applied);
  out["affected_sources"] = JsonValue(static_cast<std::uint64_t>(affected));
  out["batch_edges"] = JsonValue(total.batch_edges);
  out["coalesced_away"] = JsonValue(total.coalesced_away);
  out["blocks_resolved"] = JsonValue(total.blocks_resolved);
  out["downgraded"] = JsonValue(downgraded);
  return out;
}

JsonValue render_stats(const Service& service) {
  const ServiceStats stats = service.stats();
  JsonValue s;
  s["requests"] = JsonValue(stats.requests);
  s["solves"] = JsonValue(stats.solves);
  s["top_k"] = JsonValue(stats.top_k);
  s["updates"] = JsonValue(stats.updates);
  s["errors"] = JsonValue(stats.errors);
  s["session_hits"] = JsonValue(stats.session_hits);
  s["session_misses"] = JsonValue(stats.session_misses);
  s["patch_missed"] = JsonValue(stats.patch_missed);
  s["session_evictions"] = JsonValue(stats.session_evictions);
  s["updates_local"] = JsonValue(stats.updates_local);
  s["updates_structural"] = JsonValue(stats.updates_structural);
  s["local_recomputes"] = JsonValue(stats.local_recomputes);
  s["full_invalidations"] = JsonValue(stats.full_invalidations);
  s["batch_updates"] = JsonValue(stats.batch_updates);
  s["batch_edges"] = JsonValue(stats.batch_edges);
  s["coalesced_away"] = JsonValue(stats.coalesced_away);
  s["blocks_resolved"] = JsonValue(stats.blocks_resolved);
  s["batch_downgrades"] = JsonValue(stats.batch_downgrades);
  s["hit_rate"] = JsonValue(stats.hit_rate());
  JsonValue out;
  out["ok"] = JsonValue(true);
  out["op"] = JsonValue("stats");
  out["stats"] = std::move(s);
  out["sessions"] = JsonValue(static_cast<std::uint64_t>(service.session_count()));
  return out;
}

/// Returns false when the server should stop (quit).
bool serve_line(Service& service, const std::string& line, bool timing,
                std::ostream& out) {
  JsonValue reply;
  bool keep_going = true;
  bool v2 = false;
  try {
    const JsonValue obj = JsonValue::parse(line);
    const std::string op = obj.at("op").as_string();
    // The legacy `update` verb spends "v" on an edge endpoint, so it is
    // pinned to protocol v1; every other verb may declare {"v":2}.
    if (op != "update") {
      const int version = integer_field<int>(obj, "v", 1);
      APGRE_REQUIRE(version == 1 || version == 2,
                    "unsupported protocol version: " +
                        std::to_string(version));
      v2 = version == 2;
    }
    if (op == "quit") {
      reply["ok"] = JsonValue(true);
      reply["op"] = JsonValue("quit");
      keep_going = false;
    } else if (op == "register") {
      reply = handle_register(service, obj);
    } else if (op == "unregister") {
      const std::string name = obj.at("graph").as_string();
      reply["ok"] = JsonValue(true);
      reply["op"] = JsonValue("unregister");
      reply["graph"] = JsonValue(name);
      reply["existed"] = JsonValue(service.unregister_graph(name));
    } else if (op == "graphs") {
      reply["ok"] = JsonValue(true);
      reply["op"] = JsonValue("graphs");
      JsonValue names{JsonValue::Array{}};  // explicit: [] even when empty
      for (const std::string& name : service.graph_names()) {
        names.push_back(JsonValue(name));
      }
      reply["graphs"] = std::move(names);
    } else if (op == "stats") {
      reply = render_stats(service);
    } else if (op == "evict") {
      reply["ok"] = JsonValue(true);
      reply["op"] = JsonValue("evict");
      reply["dropped"] =
          JsonValue(static_cast<std::uint64_t>(service.evict_sessions()));
    } else if (op == "batch") {
      // Fan the sub-requests across the worker pool; responses come back
      // in request order.
      std::vector<Request> requests;
      for (const JsonValue& sub : obj.at("requests").as_array()) {
        requests.push_back(parse_request(sub, sub.at("op").as_string()));
      }
      const std::vector<Request> parsed = requests;  // run_batch consumes
      std::vector<Response> responses = service.run_batch(std::move(requests));
      reply["ok"] = JsonValue(true);
      reply["op"] = JsonValue("batch");
      JsonValue rendered;
      for (std::size_t i = 0; i < responses.size(); ++i) {
        rendered.push_back(render_response(parsed[i], responses[i], timing));
      }
      reply["responses"] = std::move(rendered);
    } else if (op == "batch_update" && obj.contains("path")) {
      reply = handle_batch_file(service, obj);
    } else if (op == "solve" || op == "top_k" || op == "update" ||
               op == "batch_update") {
      const Request request = parse_request(obj, op);
      reply = render_response(request, service.handle(request), timing);
    } else {
      reply = error_line("unknown op: " + op);
    }
  } catch (const std::exception& e) {
    // Not only apgre::Error: a request can also provoke std::bad_alloc (a
    // huge vertex count) or a failed internal assert, and one bad line must
    // not end the server.
    reply = error_line(e.what());
  }
  // v2 replies echo the protocol version; v1 replies stay byte-stable.
  if (v2) reply["v"] = JsonValue(static_cast<std::uint64_t>(2));
  out << reply.dump() << "\n" << std::flush;
  return keep_going;
}

int serve_main(int argc, char** argv) {
  FlagParser flags(
      "apgre_serve: line-oriented JSON BC query service on stdin/stdout");
  flags.add_int("workers", 4, "worker threads draining the request queue");
  flags.add_int("capacity", 8, "warm solver sessions kept in the LRU cache");
  flags.add_bool("timing", false,
                 "include wall-time fields in responses (off keeps replay "
                 "output byte-stable)");

  try {
    const std::vector<std::string> positional = flags.parse(argc, argv);
    if (flags.help_requested()) {
      std::cout << flags.help();
      return 0;
    }
    if (!positional.empty()) {
      throw OptionError("apgre_serve takes no positional arguments");
    }
    ServiceOptions options;
    options.workers = int_flag<int>(flags, "workers", 1, kMaxSolveThreads);
    options.session_capacity = int_flag<std::size_t>(flags, "capacity", 1);
    const bool timing = flags.get_bool("timing");

    Service service(options);
    for (std::string line; std::getline(std::cin, line);) {
      if (line.empty()) continue;
      if (!serve_line(service, line, timing, std::cout)) break;
    }
    return 0;
  } catch (const Error& e) {
    // FlagParser reports unknown flags as plain Error; both are usage.
    std::cerr << "usage error: " << e.what() << "\n" << flags.help();
    return 2;
  }
}

}  // namespace
}  // namespace apgre

int main(int argc, char** argv) { return apgre::serve_main(argc, argv); }

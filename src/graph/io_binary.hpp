// Binary graph cache: a versioned little-endian dump of the CSR arrays so
// repeated benchmark / analysis runs skip text parsing. Roughly 20x faster
// to load than the SNAP text path for large graphs.
//
// Layout: magic "APGR", u32 version, u8 directed, u8 weighted, u32 |V|,
// u64 |arcs|, arc array as (src,dst) pairs reconstructed into CSR on load
// (keeps the format independent of internal offset layout). The weighted
// byte is always written 0; a file that sets it is rejected.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/csr.hpp"

namespace apgre {

void write_binary(std::ostream& out, const CsrGraph& g);
void write_binary_file(const std::string& path, const CsrGraph& g);
CsrGraph read_binary(std::istream& in, const std::string& name = "<stream>");
CsrGraph read_binary_file(const std::string& path);

}  // namespace apgre

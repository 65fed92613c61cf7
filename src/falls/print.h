// Human-readable rendering of FALLS: tuple notation used in the paper
// ("(l,r,s,n)", nested "(l,r,s,n,{...})") and ASCII byte-ruler diagrams in
// the style of the paper's figures 1-4.
#pragma once

#include <string>
#include <string_view>

#include "falls/falls.h"

namespace pfm {

/// Tuple notation, e.g. "(3,5,6,5)" or "(0,3,8,2,{(0,0,2,2)})".
std::string to_string(const Falls& f);
/// "{f0, f1, ...}".
std::string to_string(const FallsSet& set);
/// `head` followed by to_string(set), in one string allocated at its exact
/// length (encode_projection's "<period> <falls>").
std::string to_string(std::string_view head, const FallsSet& set);

/// ASCII diagram over [0, extent): a ruler line with byte indices (when
/// extent <= 64) and a mark line with 'X' on member bytes, '.' elsewhere.
std::string render_bytes(const FallsSet& set, std::int64_t extent = -1);

}  // namespace pfm

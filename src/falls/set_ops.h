// Set-level queries over nested FALLS: membership, rank (bytes below an
// offset), contiguity tests. These are the building blocks the mapping
// functions and the Clusterfile fast paths are verified against.
#pragma once

#include <cstdint>
#include <optional>

#include "falls/falls.h"

namespace pfm {

/// True when byte index x (relative to the start of the pattern period)
/// belongs to the byte set of f / set. Runs in O(tree depth).
bool falls_contains(const Falls& f, std::int64_t x);
bool set_contains(const FallsSet& set, std::int64_t x);

/// Number of member bytes strictly below x. This is the order-preserving
/// rank that underlies MAP: for x in the set, rank == MAP-AUX(x).
/// Runs in O(members * depth).
std::int64_t falls_rank(const Falls& f, std::int64_t x);
std::int64_t set_rank(const FallsSet& set, std::int64_t x);

/// True when the set denotes one single contiguous run (or is empty).
bool is_single_run(const FallsSet& set);

/// The first/last byte index of the set, std::nullopt when empty. last_byte
/// reads the FALLS nodes; first_byte walks the runs.
std::optional<std::int64_t> first_byte(const FallsSet& set);
std::optional<std::int64_t> last_byte(const FallsSet& set);

/// True when the two sets denote identical byte sets. Structural forms may
/// differ; comparison is by maximal runs, so it is exact and cheap for
/// compact representations.
bool same_byte_set(const FallsSet& a, const FallsSet& b);

/// True when every byte of `inner` also belongs to `outer`.
bool subset_of(const FallsSet& inner, const FallsSet& outer);

}  // namespace pfm

// CUT-FALLS (paper section 7): restricting a FALLS to an index interval.
//
// CUT-FALLS(f, a, b) yields the set of FALLS describing the bytes of f that
// lie in [a, b], re-expressed relative to a. The result is at most three
// FALLS: a clipped head segment, the run of complete blocks, and a clipped
// tail segment. The nested variant recursively cuts inner FALLS of blocks
// that are only partially inside the interval.
#pragma once

#include <array>
#include <cstdint>

#include "falls/falls.h"

namespace pfm {

/// Flat cut of the outer structure of f (inner sets are carried over to
/// blocks that survive whole; partially covered blocks of a nested FALLS
/// get their inner sets cut recursively). Result is relative to a, sorted,
/// non-overlapping. Requires a <= b; indices may exceed f's extent (the cut
/// simply yields fewer bytes).
FallsSet cut_falls(const Falls& f, std::int64_t a, std::int64_t b);

/// Cut of a whole set: union of member cuts (relative to a).
FallsSet cut_set(const FallsSet& set, std::int64_t a, std::int64_t b);

/// One FALLS of a borrowing cut. A piece of whole blocks keeps no inner set
/// of its own: it refers to the inner set of the FALLS it was cut from. A
/// clipped block owns the cut of that set in f.inner.
struct CutPiece {
  Falls f;
  const FallsSet* whole = nullptr;  ///< whole blocks: the cut FALLS's inner set

  const FallsSet& inner() const { return whole != nullptr ? *whole : f.inner; }
  bool leaf() const { return inner().empty(); }
};

/// The pieces of one cut, in cut_falls order.
struct Cut {
  std::array<CutPiece, 3> pieces;
  std::size_t size = 0;

  const CutPiece* begin() const { return pieces.data(); }
  const CutPiece* end() const { return pieces.data() + size; }
};

/// cut_falls(f, a, b) without copying f's inner set into the pieces of whole
/// blocks (f must outlive the cut).
Cut cut_borrowed(const Falls& f, std::int64_t a, std::int64_t b);

/// cut_falls of a piece, every result FALLS shifted by `shift` and appended
/// to `out` with its own copy of its inner set.
void append_cut(FallsSet& out, const CutPiece& g, std::int64_t a, std::int64_t b,
                std::int64_t shift);

/// Rotates a partitioning-pattern element left by `shift` within a pattern
/// of period T: byte x of the result corresponds to byte (x + shift) mod T
/// of the input's periodic tiling. Used by PREPROCESS to align two patterns
/// with different displacements. Requires 0 <= shift < T and set extent <= T.
FallsSet rebase_period(const FallsSet& set, std::int64_t shift, std::int64_t T);

}  // namespace pfm

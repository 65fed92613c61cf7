// Non-contiguous access through views and datatypes (paper sections 3-4):
// "Non-contiguous I/O is realized by setting a linear view on the data set
// and accessing it contiguously." A process extracts the boundary halo of a
// 2-D grid — a classic non-contiguous pattern — three ways and checks all
// agree:
//   a. an MPI-like datatype + pack,
//   b. a FALLS view + gather,
//   c. a brute-force loop (the oracle).
#include <cstdio>
#include <set>

#include "datatype/datatype.h"
#include "falls/compress.h"
#include "falls/print.h"
#include "redist/gather_scatter.h"
#include "util/buffer.h"

int main() {
  using namespace pfm;

  const std::int64_t n = 16;  // n x n grid of 1-byte cells
  const Buffer grid = make_pattern_buffer(static_cast<std::size_t>(n * n), 7);

  // --- a. Datatypes: the interior as a subarray; halo = everything else. --
  // Build the interior subarray type, then express the halo as an indexed
  // type: full first row, the two edge columns of each interior row, full
  // last row.
  std::vector<std::int64_t> lens, displs;
  lens.push_back(n);  // first row
  displs.push_back(0);
  for (std::int64_t r = 1; r < n - 1; ++r) {
    lens.push_back(1);
    displs.push_back(r * n);          // left edge
    lens.push_back(1);
    displs.push_back(r * n + n - 1);  // right edge
  }
  lens.push_back(n);  // last row
  displs.push_back((n - 1) * n);
  const Datatype halo = Datatype::indexed(lens, displs, Datatype::contiguous(1));
  std::printf("halo datatype: %lld bytes of a %lldx%lld grid, FALLS %s...\n",
              static_cast<long long>(halo.size()), static_cast<long long>(n),
              static_cast<long long>(n),
              to_string(halo.falls()).substr(0, 60).c_str());

  Buffer packed(static_cast<std::size_t>(halo.size()));
  halo.pack(grid, 1, packed);

  // --- b. The same selection as a view over the grid bytes. --------------
  const IndexSet view(halo.falls(), n * n);
  Buffer gathered(static_cast<std::size_t>(view.size()));
  gather(gathered, grid, 0, n * n - 1, view);

  // --- c. Brute force. ----------------------------------------------------
  Buffer manual;
  for (std::int64_t r = 0; r < n; ++r)
    for (std::int64_t c = 0; c < n; ++c)
      if (r == 0 || r == n - 1 || c == 0 || c == n - 1)
        manual.push_back(grid[static_cast<std::size_t>(r * n + c)]);

  const bool ab = equal_bytes(packed, gathered);
  const bool ac = equal_bytes(packed, manual);
  std::printf("pack == gather: %s;  pack == manual loop: %s\n",
              ab ? "yes" : "NO", ac ? "yes" : "NO");

  // Unpack restores the halo positions (and only those).
  Buffer restored(static_cast<std::size_t>(n * n));
  halo.unpack(packed, 1, restored);
  bool unpack_ok = true;
  for (std::int64_t i = 0; i < n * n; ++i) {
    const bool member = view.count_in(i, i) == 1;
    const std::byte want = member ? grid[static_cast<std::size_t>(i)] : std::byte{0};
    unpack_ok = unpack_ok && restored[static_cast<std::size_t>(i)] == want;
  }
  std::printf("unpack restores exactly the halo cells: %s\n",
              unpack_ok ? "yes" : "NO");

  // The amortization point (paper section 2): the view's FALLS are built
  // once at view construction; each access walks only the blocks its
  // interval touches, without re-deriving the mapping.
  std::printf("view keeps %lld FALLS nodes; a walk over the whole grid "
              "yields %zu runs.\n",
              static_cast<long long>(node_count(view.falls())),
              view.materialize_in(0, n * n - 1).runs.size());
  return ab && ac && unpack_ok ? 0 : 1;
}

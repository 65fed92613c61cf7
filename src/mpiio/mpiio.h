// An MPI-IO-style file interface implemented on the paper's file model
// (paper section 3: "MPI-IO library file model can be also implemented
// using our file model and mappings").
//
// MPI-IO semantics reproduced here: a process sets a view with
// (displacement, etype, filetype); the filetype — a derived datatype whose
// selection pattern tiles the file from the displacement — defines the
// visible bytes, and file offsets are counted in etypes within that view.
// Internally the filetype lowers to a nested FALLS partition element and
// every access runs through the library's MAP / gather / scatter machinery.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "datatype/datatype.h"
#include "mapping/map.h"
#include "redist/gather_scatter.h"
#include "util/buffer.h"

namespace pfm {

/// A linear byte file an MpiioView reads and writes. The library ships a
/// memory-backed implementation; Clusterfile or a POSIX file can implement
/// the same interface.
class LinearFile {
 public:
  virtual ~LinearFile() = default;
  virtual void write_at(std::int64_t offset, std::span<const std::byte> data) = 0;
  virtual void read_at(std::int64_t offset, std::span<std::byte> out) const = 0;
  virtual std::int64_t size() const = 0;
};

/// Grow-on-write in-memory LinearFile.
class MemoryFile final : public LinearFile {
 public:
  void write_at(std::int64_t offset, std::span<const std::byte> data) override;
  void read_at(std::int64_t offset, std::span<std::byte> out) const override;
  std::int64_t size() const override { return static_cast<std::int64_t>(data_.size()); }
  const Buffer& bytes() const { return data_; }

 private:
  Buffer data_;
};

/// MPI_File_set_view / read_at / write_at semantics over a LinearFile.
class MpiioView {
 public:
  /// disp: absolute byte displacement; etype_size: the elementary type's
  /// size in bytes; filetype: the access pattern (its size must be a
  /// multiple of etype_size — MPI requires filetypes to be built from
  /// whole etypes).
  MpiioView(std::shared_ptr<LinearFile> file, std::int64_t disp,
            std::int64_t etype_size, const Datatype& filetype);

  std::int64_t etype_size() const { return etype_size_; }
  /// Visible etypes per filetype tile.
  std::int64_t etypes_per_tile() const { return idx_.size() / etype_size_; }

  /// Writes `data` (a whole number of etypes) at view offset `offset`
  /// (counted in etypes, as MPI does). Non-contiguous filetype regions are
  /// scattered to their file positions.
  void write_at(std::int64_t offset, std::span<const std::byte> data);

  /// Reads |out| bytes (a whole number of etypes) from view offset
  /// `offset` (in etypes).
  void read_at(std::int64_t offset, std::span<std::byte> out) const;

  /// The file-linear offset holding view byte `view_byte` — the mapping
  /// function MAP^-1 of paper section 6 (exposed for tests).
  std::int64_t file_offset_of(std::int64_t view_byte) const;

 private:
  /// First view byte for an access of `bytes` at etype offset `offset`;
  /// validates etype alignment.
  std::int64_t check_access(std::int64_t offset, std::int64_t bytes) const;

  /// Invokes fn(file_offset, length) for every contiguous file region of
  /// the `count` visible bytes starting at view rank `first_rank`.
  template <typename Fn>
  void for_each_file_chunk(std::int64_t first_rank, std::int64_t count,
                           Fn&& fn) const;

  std::shared_ptr<LinearFile> file_;
  std::int64_t disp_;
  std::int64_t etype_size_;
  IndexSet idx_;  ///< the filetype's FALLS, tiled with its extent
};

}  // namespace pfm

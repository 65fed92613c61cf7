#include "mpiio/mpiio.h"

#include <cstring>
#include <stdexcept>

#include "falls/set_ops.h"

namespace pfm {

void MemoryFile::write_at(std::int64_t offset, std::span<const std::byte> data) {
  if (offset < 0) throw std::invalid_argument("MemoryFile::write_at: bad offset");
  const std::size_t end = static_cast<std::size_t>(offset) + data.size();
  if (end > data_.size()) data_.resize(end);
  std::memcpy(data_.data() + offset, data.data(), data.size());
}

void MemoryFile::read_at(std::int64_t offset, std::span<std::byte> out) const {
  if (offset < 0 ||
      static_cast<std::size_t>(offset) + out.size() > data_.size())
    throw std::out_of_range("MemoryFile::read_at: range beyond file");
  std::memcpy(out.data(), data_.data() + offset, out.size());
}

MpiioView::MpiioView(std::shared_ptr<LinearFile> file, std::int64_t disp,
                     std::int64_t etype_size, const Datatype& filetype)
    : file_(std::move(file)),
      disp_(disp),
      etype_size_(etype_size),
      idx_(filetype.falls(), filetype.extent()) {
  if (!file_) throw std::invalid_argument("MpiioView: null file");
  if (disp_ < 0) throw std::invalid_argument("MpiioView: negative displacement");
  if (etype_size_ < 1) throw std::invalid_argument("MpiioView: etype size < 1");
  if (filetype.size() % etype_size_ != 0)
    throw std::invalid_argument(
        "MpiioView: filetype must consist of whole etypes");
}

std::int64_t MpiioView::file_offset_of(std::int64_t view_byte) const {
  const ElementRef ref{&idx_.falls(), disp_, idx_.period()};
  return map_to_file(ref, view_byte);
}

std::int64_t MpiioView::check_access(std::int64_t offset, std::int64_t bytes) const {
  if (offset < 0) throw std::invalid_argument("MpiioView: negative offset");
  if (bytes % etype_size_ != 0)
    throw std::invalid_argument("MpiioView: access must be whole etypes");
  return offset * etype_size_;
}

template <typename Fn>
void MpiioView::for_each_file_chunk(std::int64_t first_rank, std::int64_t count,
                                    Fn&& fn) const {
  // The visible bytes of ranks [first_rank, first_rank + count) are the
  // filetype runs between the file offsets of the first and the last rank,
  // so the file I/O is one operation per contiguous region — the
  // segment-wise access the paper's representation exists to enable.
  const std::int64_t lo = file_offset_of(first_rank) - disp_;
  const std::int64_t hi = file_offset_of(first_rank + count - 1) - disp_;
  idx_.for_each_run_in(lo, hi, [&](std::int64_t a, std::int64_t b) {
    fn(disp_ + a, b - a + 1);
  });
}

void MpiioView::write_at(std::int64_t offset, std::span<const std::byte> data) {
  const std::int64_t v = check_access(offset, static_cast<std::int64_t>(data.size()));
  if (data.empty()) return;
  std::int64_t consumed = 0;
  for_each_file_chunk(v, static_cast<std::int64_t>(data.size()),
                      [&](std::int64_t file_off, std::int64_t len) {
                        file_->write_at(file_off,
                                        data.subspan(static_cast<std::size_t>(consumed),
                                                     static_cast<std::size_t>(len)));
                        consumed += len;
                      });
}

void MpiioView::read_at(std::int64_t offset, std::span<std::byte> out) const {
  const std::int64_t v = check_access(offset, static_cast<std::int64_t>(out.size()));
  if (out.empty()) return;
  std::int64_t produced = 0;
  for_each_file_chunk(v, static_cast<std::int64_t>(out.size()),
                      [&](std::int64_t file_off, std::int64_t len) {
                        file_->read_at(file_off,
                                       out.subspan(static_cast<std::size_t>(produced),
                                                   static_cast<std::size_t>(len)));
                        produced += len;
                      });
}

}  // namespace pfm

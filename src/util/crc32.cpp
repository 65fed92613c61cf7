#include "util/crc32.h"

#include <array>

namespace pfm {

namespace {

/// Four lookup tables for slice-by-4: table[0] is the classic byte-at-a-time
/// CRC table for the (reflected) polynomial; table[k][b] extends it by k
/// extra zero bytes.
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 4> t{};

  explicit Tables(std::uint32_t poly) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? poly : 0u);
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
      for (std::size_t k = 1; k < 4; ++k)
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  }
};

const Tables& ieee_tables() {
  static const Tables t(0xEDB88320u);
  return t;
}

const Tables& castagnoli_tables() {
  static const Tables t(0x82F63B78u);
  return t;
}

std::uint32_t crc_sw(const Tables& tables, const void* data, std::size_t n,
                     std::uint32_t crc) {
  const auto& t = tables.t;
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (n >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[3][crc & 0xFFu] ^ t[2][(crc >> 8) & 0xFFu] ^
          t[1][(crc >> 16) & 0xFFu] ^ t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
  return ~crc;
}

#if defined(__x86_64__)
/// Tables that advance a raw (reflected) CRC-32C register over `n` zero
/// bytes, one table per register byte. They merge chains computed side by
/// side: the register after A‖B is shift_|B|(register after A) ^ (register
/// after B started from 0), because the update is linear over GF(2). Built
/// as in Mark Adler's crc32c.c: square the one-zero-bit operator until it
/// covers `n` bytes (a power of two), then tabulate it per byte.
class ZeroShift {
 public:
  explicit ZeroShift(std::size_t n) {
    Matrix op{};
    op[0] = 0x82F63B78u;  // column k: the register 1 << k after a zero bit
    for (std::size_t k = 1; k < 32; ++k) op[k] = 1u << (k - 1);
    for (std::size_t bits = 1; bits < 8 * n; bits *= 2) {
      Matrix sq{};
      for (std::size_t k = 0; k < 32; ++k) sq[k] = times(op, op[k]);
      op = sq;
    }
    for (std::uint32_t b = 0; b < 256; ++b)
      for (std::size_t k = 0; k < 4; ++k) t_[k][b] = times(op, b << (8 * k));
  }

  std::uint32_t operator()(std::uint32_t crc) const {
    return t_[0][crc & 0xFFu] ^ t_[1][(crc >> 8) & 0xFFu] ^
           t_[2][(crc >> 16) & 0xFFu] ^ t_[3][crc >> 24];
  }

 private:
  using Matrix = std::array<std::uint32_t, 32>;

  static std::uint32_t times(const Matrix& m, std::uint32_t v) {
    std::uint32_t sum = 0;
    for (std::size_t k = 0; v != 0; ++k, v >>= 1)
      if ((v & 1u) != 0) sum ^= m[k];
    return sum;
  }

  std::array<std::array<std::uint32_t, 256>, 4> t_{};
};

/// Folds the 3 * `len` bytes at `p` into register `c`: three independent
/// crc32q chains, one per third, merged by `shift` (over `len` zero bytes).
/// One chain waits out the instruction's 3-cycle latency on every 8 bytes;
/// three keep its one-per-cycle throughput busy.
__attribute__((target("sse4.2"))) std::uint64_t crc32c_3way(
    std::uint64_t c, const unsigned char* p, std::size_t len,
    const ZeroShift& shift) {
  std::uint64_t c1 = 0;
  std::uint64_t c2 = 0;
  for (std::size_t i = 0; i < len; i += 8) {
    std::uint64_t v0, v1, v2;
    __builtin_memcpy(&v0, p + i, 8);
    __builtin_memcpy(&v1, p + len + i, 8);
    __builtin_memcpy(&v2, p + 2 * len + i, 8);
    c = __builtin_ia32_crc32di(c, v0);
    c1 = __builtin_ia32_crc32di(c1, v1);
    c2 = __builtin_ia32_crc32di(c2, v2);
  }
  c = shift(static_cast<std::uint32_t>(c)) ^ c1;
  return shift(static_cast<std::uint32_t>(c)) ^ c2;
}

/// SSE4.2 CRC32 instruction path (the instruction implements exactly the
/// reflected Castagnoli polynomial, so it returns bit-identical values to
/// the table fallback). Dispatched at runtime; the target attribute lets the
/// builtin compile without raising the whole TU's ISA baseline. Stretches
/// of 3 x 1024 bytes, then of 3 x 256, run three chains each; the tail is
/// serial. A 4 KiB integrity block is 3072 + 768 + 256 bytes.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(const void* data,
                                                          std::size_t n,
                                                          std::uint32_t crc) {
  constexpr std::size_t kLong = 1024;
  constexpr std::size_t kShort = 256;
  static const ZeroShift long_shift(kLong);
  static const ZeroShift short_shift(kShort);
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c = ~crc;
  for (; n >= 3 * kLong; p += 3 * kLong, n -= 3 * kLong)
    c = crc32c_3way(c, p, kLong, long_shift);
  for (; n >= 3 * kShort; p += 3 * kShort, n -= 3 * kShort)
    c = crc32c_3way(c, p, kShort, short_shift);
  while (n >= 8) {
    std::uint64_t v;
    __builtin_memcpy(&v, p, 8);
    c = __builtin_ia32_crc32di(c, v);
    p += 8;
    n -= 8;
  }
  std::uint32_t c32 = static_cast<std::uint32_t>(c);
  while (n-- > 0) c32 = __builtin_ia32_crc32qi(c32, *p++);
  return ~c32;
}

bool have_sse42() {
  static const bool b = __builtin_cpu_supports("sse4.2");
  return b;
}
#endif

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc) {
  return crc_sw(ieee_tables(), data, n, crc);
}

std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t crc) {
#if defined(__x86_64__)
  if (have_sse42()) return crc32c_hw(data, n, crc);
#endif
  return crc_sw(castagnoli_tables(), data, n, crc);
}

}  // namespace pfm

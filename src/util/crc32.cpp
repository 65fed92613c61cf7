#include "util/crc32.h"

#include <array>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pfm {

namespace {

/// The Castagnoli polynomial, bit-reflected.
constexpr std::uint32_t kCastagnoli = 0x82F63B78u;

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
  static const Tables t(kCastagnoli);
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
    op[0] = kCastagnoli;  // column k: the register 1 << k after a zero bit
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

/// The qword K whose carry-less product with a reflected qword V stands,
/// in a reflected 128-bit register, for V * x^e (mod P): x^(e-32) mod P,
/// reflected and shifted up one bit; the product's own alignment supplies
/// the other x^32. Evaluated by the compiler: every use initializes a
/// constexpr.
constexpr std::uint64_t times_x(unsigned e) {
  std::uint32_t r = 0x80000000u;  // x^0
  for (unsigned i = 32; i < e; ++i)
    r = (r >> 1) ^ ((r & 1u) != 0 ? kCastagnoli : 0u);
  return std::uint64_t{r} << 1;
}

/// The multipliers that move each 128-bit lane of a 512-bit register
/// `bits[j]` further along the message (0 clears the lane). A lane's first
/// qword holds the higher-degree half, so it moves 64 bits further than
/// its second.
constexpr std::array<std::uint64_t, 8> lane_folds(
    std::array<unsigned, 4> bits) {
  std::array<std::uint64_t, 8> k{};
  for (std::size_t j = 0; j < 4; ++j) {
    if (bits[j] == 0) continue;
    k[2 * j] = times_x(bits[j] + 64);
    k[2 * j + 1] = times_x(bits[j]);
  }
  return k;
}

constexpr auto kBy256Bytes = lane_folds({2048, 2048, 2048, 2048});
constexpr auto kBy192Bytes = lane_folds({1536, 1536, 1536, 1536});
constexpr auto kBy128Bytes = lane_folds({1024, 1024, 1024, 1024});
constexpr auto kBy64Bytes = lane_folds({512, 512, 512, 512});
/// Lanes 0, 1 and 2 onto lane 3, which is added back unmoved.
constexpr auto kLanesOntoLast = lane_folds({384, 256, 128, 0});

/// Every lane of `acc` moved forward by the multipliers in `k`, plus `next`.
__attribute__((target("avx512f,avx512vl,vpclmulqdq,pclmul,sse4.2")))
__m512i fold(__m512i acc, __m512i k, __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(acc, k, 0x00),
                                   _mm512_clmulepi64_epi128(acc, k, 0x11),
                                   next, 0x96);  // a ^ b ^ c
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009) on 512-bit
/// registers. Four accumulators hold 256 message bytes; each step moves
/// every 128-bit lane 256 bytes on (x^2048 mod P) and adds the next 256.
/// They collapse onto one 128-bit remainder congruent to the whole message
/// mod P, and the CRC of that remainder from a zero register is the CRC
/// so far, so the crc32 instruction finishes it and the tail: no Barrett
/// reduction. Below 256 bytes the SSE4.2 path runs alone.
__attribute__((target("avx512f,avx512vl,vpclmulqdq,pclmul,sse4.2")))
std::uint32_t crc32c_fold(const void* data, std::size_t n,
                          std::uint32_t crc) {
  if (n < 256) return crc32c_hw(data, n, crc);
  const auto* p = static_cast<const unsigned char*>(data);
  // The update is linear: the starting register joins the first four
  // message bytes, where crc32 itself would add it in.
  __m512i a0 = _mm512_xor_si512(
      _mm512_loadu_si512(p),
      _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(~crc))));
  __m512i a1 = _mm512_loadu_si512(p + 64);
  __m512i a2 = _mm512_loadu_si512(p + 128);
  __m512i a3 = _mm512_loadu_si512(p + 192);
  const __m512i by256 = _mm512_loadu_si512(kBy256Bytes.data());
  for (p += 256, n -= 256; n >= 256; p += 256, n -= 256) {
    a0 = fold(a0, by256, _mm512_loadu_si512(p));
    a1 = fold(a1, by256, _mm512_loadu_si512(p + 64));
    a2 = fold(a2, by256, _mm512_loadu_si512(p + 128));
    a3 = fold(a3, by256, _mm512_loadu_si512(p + 192));
  }
  const __m512i by64 = _mm512_loadu_si512(kBy64Bytes.data());
  __m512i a = fold(a0, _mm512_loadu_si512(kBy192Bytes.data()),
                   fold(a1, _mm512_loadu_si512(kBy128Bytes.data()),
                        fold(a2, by64, a3)));
  for (; n >= 64; p += 64, n -= 64) a = fold(a, by64, _mm512_loadu_si512(p));
  a = fold(a, _mm512_loadu_si512(kLanesOntoLast.data()),
           _mm512_maskz_mov_epi64(0xC0, a));
  // Masked extracts: GCC reports the plain ones' undefined pass-through
  // operand as maybe-uninitialized.
  const __m256i half =
      _mm256_xor_si256(_mm512_maskz_extracti64x4_epi64(0xF, a, 0),
                       _mm512_maskz_extracti64x4_epi64(0xF, a, 1));
  const __m128i x = _mm_xor_si128(_mm256_castsi256_si128(half),
                                  _mm256_extracti128_si256(half, 1));
  std::uint64_t c = __builtin_ia32_crc32di(
      0, static_cast<std::uint64_t>(_mm_cvtsi128_si64(x)));
  c = __builtin_ia32_crc32di(
      c, static_cast<std::uint64_t>(_mm_extract_epi64(x, 1)));
  return crc32c_hw(p, n, ~static_cast<std::uint32_t>(c));
}
#endif

std::uint32_t crc32c_sw(const void* data, std::size_t n, std::uint32_t crc) {
  return crc_sw(castagnoli_tables(), data, n, crc);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc) {
  return crc_sw(ieee_tables(), data, n, crc);
}

std::span<const Crc32cImpl> crc32c_impls() {
  static const std::vector<Crc32cImpl> impls = [] {
    std::vector<Crc32cImpl> v;
#if defined(__x86_64__)
    // libgcc's (and compiler-rt's) feature bits include the OS check: the
    // AVX-512 ones are set only when XGETBV shows the ZMM state enabled.
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("vpclmulqdq") &&
        __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.2"))
      v.push_back({"avx512_vpclmulqdq", crc32c_fold});
    if (__builtin_cpu_supports("sse4.2")) v.push_back({"sse42", crc32c_hw});
#endif
    v.push_back({"table", crc32c_sw});
    return v;
  }();
  return impls;
}

std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t crc) {
  static const auto best = crc32c_impls().front().fn;
  return best(data, n, crc);
}

}  // namespace pfm

// Tests for arithmetic, statistics, buffer and checksum utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>

#include "util/arith.h"
#include "util/buffer.h"
#include "util/crc32.h"
#include "util/stats.h"

namespace pfm {
namespace {

TEST(Arith, GcdLcmBasics) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(0, 7), 7);
  EXPECT_EQ(gcd64(7, 0), 7);
  EXPECT_EQ(lcm64(4, 6), 12);
  EXPECT_EQ(lcm64(1, 9), 9);
  EXPECT_EQ(lcm64(0, 9), 0);
  EXPECT_THROW(gcd64(-1, 3), std::invalid_argument);
}

TEST(Arith, LcmOverflowDetected) {
  const std::int64_t big = (std::int64_t{1} << 62) + 1;
  EXPECT_THROW(lcm64(big, big - 2), std::overflow_error);
}

TEST(Arith, FloorDivMod) {
  EXPECT_EQ(div_floor(7, 2), 3);
  EXPECT_EQ(div_floor(-7, 2), -4);
  EXPECT_EQ(div_floor(-8, 2), -4);
  EXPECT_EQ(mod_floor(7, 3), 1);
  EXPECT_EQ(mod_floor(-7, 3), 2);
  EXPECT_EQ(mod_floor(-9, 3), 0);
  EXPECT_EQ(div_ceil(7, 2), 4);
  EXPECT_EQ(div_ceil(8, 2), 4);
  EXPECT_EQ(div_ceil(0, 5), 0);
}

TEST(Arith, FloorIdentity) {
  for (std::int64_t a = -20; a <= 20; ++a)
    for (std::int64_t b : {1, 2, 3, 7}) {
      EXPECT_EQ(div_floor(a, b) * b + mod_floor(a, b), a) << a << "/" << b;
      EXPECT_GE(mod_floor(a, b), 0);
      EXPECT_LT(mod_floor(a, b), b);
    }
}

TEST(Arith, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
  EXPECT_EQ(log2_exact(1), 0);
  EXPECT_EQ(log2_exact(4096), 12);
  EXPECT_THROW(log2_exact(3), std::invalid_argument);
}

TEST(Stats, MeanStddev) {
  Stats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.rel_stddev(), 2.138 / 5.0, 1e-3);
}

TEST(Stats, EmptyAndSingle) {
  Stats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Buffer, PatternIsDeterministicAndSeedSensitive) {
  const Buffer a = make_pattern_buffer(64, 1);
  const Buffer b = make_pattern_buffer(64, 1);
  const Buffer c = make_pattern_buffer(64, 2);
  EXPECT_TRUE(equal_bytes(a, b));
  EXPECT_FALSE(equal_bytes(a, c));
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], pattern_byte(i, 1));
}

TEST(Buffer, EqualBytesChecksSizes) {
  const Buffer a = make_pattern_buffer(8, 3);
  Buffer b = a;
  EXPECT_TRUE(equal_bytes(a, b));
  b.pop_back();
  EXPECT_FALSE(equal_bytes(a, b));
}

/// CRC-32C one bit at a time, with crc32c's chaining convention: the
/// definition the table and instruction paths must reproduce.
std::uint32_t crc32c_bitwise(const std::byte* p, std::size_t n,
                             std::uint32_t crc) {
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= std::to_integer<std::uint32_t>(p[i]);
    for (int k = 0; k < 8; ++k)
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0x82F63B78u : 0u);
  }
  return ~crc;
}

TEST(Crc, KnownAnswers) {
  const char* check = "123456789";
  EXPECT_EQ(crc32(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(crc32c(check, std::strlen(check)), 0xE3069283u);
  EXPECT_EQ(crc32c(check, 0), 0u);
}

// Every CRC-32C implementation, by name, in dispatch order. One the CPU
// cannot run is skipped under its name; one missing here fails
// Crc.EveryImplementationIsTested.
const char* const kCrc32cPaths[] = {"avx512_vpclmulqdq", "sse42", "table"};

class Crc32cPath : public testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    for (const Crc32cImpl& impl : crc32c_impls())
      if (std::strcmp(impl.name, GetParam()) == 0) fn_ = impl.fn;
    if (fn_ == nullptr)
      GTEST_SKIP() << GetParam() << " is not supported by this CPU";
  }

  decltype(Crc32cImpl::fn) fn_ = nullptr;
};

TEST(Crc, EveryImplementationIsTested) {
  const auto impls = crc32c_impls();
  ASSERT_FALSE(impls.empty());
  EXPECT_STREQ(impls.back().name, "table");
  for (const Crc32cImpl& impl : impls)
    EXPECT_TRUE(std::any_of(
        std::begin(kCrc32cPaths), std::end(kCrc32cPaths),
        [&](const char* name) { return std::strcmp(name, impl.name) == 0; }))
        << impl.name << " has no test";
}

// Every length across the fold's 256-, 64- and 16-byte steps, the 3-chain
// stretches (3 x 256 and 3 x 1024 bytes), their serial tails and the byte
// tail, at every alignment: bit-identical to the bitwise definition.
TEST_P(Crc32cPath, MatchesBitwiseAtEveryLengthAndAlignment) {
  constexpr std::size_t kMaxLen = 3 * 4096 + 17;
  const Buffer buf = make_pattern_buffer(kMaxLen + 8, 11);
  for (std::size_t off = 0; off < 8; ++off) {
    const std::byte* p = buf.data() + off;
    std::uint32_t want = 0;  // bitwise CRC of the first `len` bytes
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(fn_(p, len, 0), want) << "offset " << off << " length " << len;
      want = crc32c_bitwise(p + len, 1, want);
    }
  }
}

TEST_P(Crc32cPath, ChainsAcrossStepBoundaries) {
  constexpr std::size_t kLen = 3 * 4096 + 17;
  const Buffer buf = make_pattern_buffer(kLen, 12);
  for (const std::uint32_t init : {0u, 0xDEADBEEFu}) {
    const std::uint32_t whole = fn_(buf.data(), kLen, init);
    ASSERT_EQ(whole, crc32c_bitwise(buf.data(), kLen, init));
    for (const std::size_t m : {255u, 256u, 257u, 767u, 768u, 769u, 3071u,
                                3072u, 3073u, 4095u, 4096u, 4097u}) {
      for (const std::size_t split : {m, kLen - m}) {
        const std::uint32_t head = fn_(buf.data(), split, init);
        EXPECT_EQ(fn_(buf.data() + split, kLen - split, head), whole)
            << "init " << init << " split " << split;
      }
    }
  }
}

TEST_P(Crc32cPath, MatchesBitwiseOnALargeBuffer) {
  const Buffer buf = make_pattern_buffer(256 * 1024, 13);
  EXPECT_EQ(fn_(buf.data(), buf.size(), 0x12345678u),
            crc32c_bitwise(buf.data(), buf.size(), 0x12345678u));
}

INSTANTIATE_TEST_SUITE_P(Crc, Crc32cPath, testing::ValuesIn(kCrc32cPaths),
                         [](const testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace pfm

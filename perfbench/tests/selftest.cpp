// Tests of the benchmark's own pieces: the seeded generator, the summary
// math, the shadow check, and the view oracle the shadow relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "core.h"

namespace perfbench {
namespace {

TEST(Generator, SameSeedSameCalls) {
  constexpr OpKind kRead = OpKind::kRead;
  for (const Workload w : {Workload::kStridedMismatch, Workload::kReplicatedBulk}) {
    const WorkloadSpec spec = workload_spec(w);
    EXPECT_EQ(generate_io_ring(spec, 42, 1, kRead, 4096),
              generate_io_ring(spec, 42, 1, kRead, 4096));
    EXPECT_NE(generate_io_ring(spec, 42, 1, kRead, 4096),
              generate_io_ring(spec, 43, 1, kRead, 4096));
    EXPECT_NE(generate_io_ring(spec, 42, 0, kRead, 4096),
              generate_io_ring(spec, 42, 1, kRead, 4096));
    EXPECT_EQ(make_payload_pool(7, 0, 4, spec.request_bytes),
              make_payload_pool(7, 0, 4, spec.request_bytes));
  }
  EXPECT_EQ(generate_churn_batch(42, 0, 3, 500), generate_churn_batch(42, 0, 3, 500));
  EXPECT_NE(generate_churn_batch(42, 0, 3, 500), generate_churn_batch(42, 0, 4, 500));
  EXPECT_NE(generate_churn_batch(42, 0, 3, 500), generate_churn_batch(9, 0, 3, 500));
  EXPECT_EQ(initial_image(5), initial_image(5));
  EXPECT_NE(initial_image(5), initial_image(6));
}

TEST(Generator, CallsStayInsideTheirView) {
  const WorkloadSpec spec = workload_spec(Workload::kStridedMismatch);
  for (const OpKind kind : {OpKind::kRead, OpKind::kWrite}) {
    std::vector<int> slot_hits(static_cast<std::size_t>(
        io_view().element_bytes() / spec.request_bytes));
    for (const Op& op : generate_io_ring(spec, 1, 0, kind, 4096)) {
      EXPECT_EQ(op.kind, kind);
      EXPECT_EQ(op.offset % spec.request_bytes, 0);
      EXPECT_LE(op.offset + op.length, io_view().element_bytes());
      EXPECT_LT(op.payload, kPayloadPool);
      ++slot_hits[static_cast<std::size_t>(op.offset / spec.request_bytes)];
    }
    for (const int hits : slot_hits) EXPECT_GT(hits, 0);  // every slot used
  }
  const std::vector<ChurnStep> churn = generate_churn_batch(1, 1, 0, 1000);
  ASSERT_EQ(churn.size(), 1000u);
  int writes = 0;
  for (const ChurnStep& s : churn) {
    EXPECT_EQ(s.view.kind, OpKind::kSetView);
    EXPECT_LT(s.view.elem, s.view.shape.parts());
    EXPECT_EQ(s.read.kind, OpKind::kRead);
    EXPECT_LE(s.read.offset + s.read.length, s.view.shape.element_bytes());
    if (!s.write) continue;
    ++writes;
    EXPECT_EQ(s.write->kind, OpKind::kWrite);
    EXPECT_LE(s.write->offset + s.write->length, s.view.shape.element_bytes());
  }
  // Each shape equally often in every stretch of steps.
  for (std::size_t i = 0; i + 3 <= churn.size(); i += 3) {
    EXPECT_NE(churn[i].view.shape, churn[i + 1].view.shape);
    EXPECT_NE(churn[i].view.shape, churn[i + 2].view.shape);
    EXPECT_NE(churn[i + 1].view.shape, churn[i + 2].view.shape);
  }
  EXPECT_EQ(workload_spec(Workload::kViewChurn).churn_round %
                static_cast<int>(churn_shapes().size()), 0);
  EXPECT_GT(writes, 200);  // one step in four
  EXPECT_LT(writes, 300);
}

TEST(Summary, PercentilesOfKnownSamples) {
  std::vector<double> s;
  for (int i = 100; i >= 1; --i) s.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(s, 50), 50.5);
  EXPECT_DOUBLE_EQ(percentile(s, 99), 99.01);
  EXPECT_DOUBLE_EQ(percentile(s, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(s, 100), 100);
  std::vector<double> one = {3.5};
  EXPECT_DOUBLE_EQ(percentile(one, 99), 3.5);
  std::vector<double> none;
  EXPECT_TRUE(std::isnan(percentile(none, 50)));
  std::vector<double> four = {4, 1, 3, 2};
  EXPECT_NEAR(percentile(four, 90), 3.7, 1e-9);
  EXPECT_EQ(four, (std::vector<double>{1, 2, 3, 4}));  // sorted in place
}

TEST(Summary, CpuPerCallOfOneKind) {
  const std::vector<PhaseStat> phases = {
      {OpKind::kRead, false, 1000, 0.020, 0.1},   // 20 us per call
      {OpKind::kWrite, false, 1000, 0.050, 0.1},  // 50
      {OpKind::kRead, false, 2000, 0.060, 0.1},   // 30
      {OpKind::kRead, true, 1000, 0.090, 0.1},    // 90, traced
      {OpKind::kRead, false, 500, 0.050, 0.1},    // 100
      {OpKind::kRead, false, 0, 0.010, 0.1},      // no calls: left out
  };
  // 10th percentile of 20, 30 and 100: rank 0.2, a fifth from 20 to 30.
  ASSERT_EQ(kReportedPercentile, 10.0);
  EXPECT_NEAR(cpu_us_per_call(phases, OpKind::kRead, false), 22, 1e-9);
  EXPECT_NEAR(cpu_us_per_call(phases, OpKind::kRead, true), 90, 1e-9);
  EXPECT_NEAR(cpu_us_per_call(phases, OpKind::kWrite, false), 50, 1e-9);
  EXPECT_TRUE(std::isnan(cpu_us_per_call(phases, OpKind::kSetView, false)));
}

TEST(Shadow, CatchesAnInjectedMismatch) {
  Shadow shadow(initial_image(11));
  const Grid2D shape = block_cyclic(2, 64);
  pfm::Buffer got(4096);
  shadow.expected(shape, 3, 777, got);
  EXPECT_TRUE(shadow.matches(shape, 3, 777, got));
  got[2500] ^= std::byte{0x01};
  EXPECT_FALSE(shadow.matches(shape, 3, 777, got));

  // A write moves the expectation: the old bytes now mismatch.
  pfm::Buffer data(4096);
  fill_seeded(data, 99);
  pfm::Buffer before(4096);
  shadow.expected(shape, 3, 777, before);
  shadow.apply(shape, 3, 777, data);
  EXPECT_TRUE(shadow.matches(shape, 3, 777, data));
  EXPECT_FALSE(shadow.matches(shape, 3, 777, before));
}

// The oracle maps view byte k to the k-th byte, in file order, of the FALLS
// the client is given; check that for every shape the workloads use.
TEST(Grid2D, OracleMatchesTheFallsDescription) {
  std::vector<Grid2D> shapes = churn_shapes();
  shapes.push_back(io_view());
  shapes.push_back(row_blocks(4));
  shapes.push_back(square_blocks(4));
  for (const Grid2D& g : shapes) {
    EXPECT_EQ(g.parts() * g.element_bytes(), kFileBytes);
    for (std::int64_t e = 0; e < g.parts(); ++e) {
      std::int64_t k = 0;
      bool ok = true;
      pfm::for_each_run(g.falls(e), [&](std::int64_t l, std::int64_t r) {
        for (std::int64_t x = l; x <= r && ok; ++x, ++k)
          ok = g.file_offset(e, k) == x;
      });
      EXPECT_TRUE(ok) << "shape grid " << g.grid_rows << "x" << g.grid_cols
                      << " element " << e;
      EXPECT_EQ(k, g.element_bytes());
    }
  }
}

TEST(Grid2D, RunsCoverTheRequestedBytes) {
  const Grid2D g = column_blocks(4);
  std::int64_t covered = 0;
  std::int64_t runs = 0;
  g.for_each_run(2, 200, 1000, [&](std::int64_t file, std::int64_t rel,
                                   std::int64_t len) {
    EXPECT_EQ(rel, covered);
    EXPECT_EQ(file, g.file_offset(2, 200 + rel));
    covered += len;
    ++runs;
  });
  EXPECT_EQ(covered, 1000);
  EXPECT_EQ(runs, 5);  // 56 + 256 + 256 + 256 + 176 bytes across 5 rows
}

}  // namespace
}  // namespace perfbench

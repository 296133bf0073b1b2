#include "bn/snapshot.h"

#include <cmath>

#include <gtest/gtest.h>

namespace turbo::bn {
namespace {

using storage::EdgeStore;

// Two-type example:
//   type 0: 0-1 (w 2), 1-2 (w 2)
//   type 1: 0-1 (w 1), 0-2 (w 3)
EdgeStore MakeStore() {
  EdgeStore s;
  s.AddWeight(0, 0, 1, 2.0f, 0);
  s.AddWeight(0, 1, 2, 2.0f, 0);
  s.AddWeight(1, 0, 1, 1.0f, 0);
  s.AddWeight(1, 0, 2, 3.0f, 0);
  return s;
}

SnapshotOptions Raw() {
  SnapshotOptions o;
  o.normalize = false;
  return o;
}

TEST(SnapshotTest, SnapshotPreservesEdges) {
  auto snap = BnSnapshot::Build(MakeStore(), 3, Raw());
  EXPECT_EQ(snap->num_nodes(), 3);
  EXPECT_EQ(snap->NumEdges(0), 2u);
  EXPECT_EQ(snap->NumEdges(1), 2u);
  EXPECT_EQ(snap->TotalEdges(), 4u);
  ASSERT_EQ(snap->Neighbors(0, 1).size(), 2u);
  EXPECT_DOUBLE_EQ(snap->WeightedDegree(0, 1), 4.0);
}

TEST(SnapshotTest, NeighborsSortedById) {
  auto snap = BnSnapshot::Build(MakeStore(), 3, Raw());
  const auto nbrs = snap->Neighbors(0, 1);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_LT(nbrs.id(0), nbrs.id(1));
}

TEST(SnapshotTest, SymmetricNormalizationFusedIntoBuild) {
  auto snap = BnSnapshot::Build(MakeStore(), 3);
  EXPECT_TRUE(snap->normalized());
  // Type 0: deg(0)=2, deg(1)=4, deg(2)=2.
  // w'(0,1) = 2 / sqrt(2*4)
  const auto nbrs = snap->Neighbors(0, 0);
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_NEAR(nbrs.weight(0), 2.0f / std::sqrt(8.0f), 1e-6f);
  // Symmetric: same value seen from node 1.
  for (const auto& e : snap->Neighbors(0, 1)) {
    if (e.id == 0) {
      EXPECT_NEAR(e.weight, 2.0f / std::sqrt(8.0f), 1e-6f);
    }
  }
}

TEST(SnapshotTest, NormalizationIsPerType) {
  auto snap = BnSnapshot::Build(MakeStore(), 3);
  // Type 1: deg(0)=4, deg(1)=1, deg(2)=3. w'(0,1) = 1/sqrt(4).
  for (const auto& e : snap->Neighbors(1, 0)) {
    if (e.id == 1) {
      EXPECT_NEAR(e.weight, 0.5f, 1e-6f);
    }
    if (e.id == 2) {
      EXPECT_NEAR(e.weight, 3.0f / std::sqrt(12.0f), 1e-6f);
    }
  }
}

TEST(SnapshotTest, ParallelBuildMatchesSerialBuild) {
  SnapshotOptions serial;
  serial.num_threads = 1;
  SnapshotOptions parallel;
  parallel.num_threads = 4;
  auto a = BnSnapshot::Build(MakeStore(), 3, serial);
  auto b = BnSnapshot::Build(MakeStore(), 3, parallel);
  for (int t = 0; t < kNumEdgeTypes; ++t) {
    ASSERT_EQ(a->NumEdges(t), b->NumEdges(t));
    for (UserId u = 0; u < 3; ++u) {
      const auto na = a->Neighbors(t, u);
      const auto nb = b->Neighbors(t, u);
      ASSERT_EQ(na.size(), nb.size());
      for (size_t i = 0; i < na.size(); ++i) {
        EXPECT_EQ(na.id(i), nb.id(i));
        EXPECT_FLOAT_EQ(na.weight(i), nb.weight(i));
      }
    }
  }
}

TEST(SnapshotTest, VersionIsCarried) {
  auto snap = BnSnapshot::Build(MakeStore(), 3, Raw(), /*version=*/42);
  EXPECT_EQ(snap->version(), 42u);
  GraphView view(snap);
  EXPECT_EQ(view.version(), 42u);
}

TEST(GraphViewTest, UnionNeighborsMergeAcrossTypes) {
  GraphView net(BnSnapshot::Build(MakeStore(), 3, Raw()));
  auto u0 = net.UnionNeighbors(0);
  ASSERT_EQ(u0.size(), 2u);  // {1, 2}
  EXPECT_EQ(u0[0].id, 1u);
  EXPECT_FLOAT_EQ(u0[0].weight, 3.0f);  // 2 (type 0) + 1 (type 1)
  EXPECT_EQ(u0[1].id, 2u);
  EXPECT_FLOAT_EQ(u0[1].weight, 3.0f);
  EXPECT_EQ(net.UnionDegree(0), 2u);
  EXPECT_DOUBLE_EQ(net.UnionWeightedDegree(0), 6.0);
}

TEST(GraphViewTest, MaskingIsZeroCopyOverSharedSnapshot) {
  GraphView net(BnSnapshot::Build(MakeStore(), 3, Raw()));
  GraphView masked = net.WithTypeMasked(0);
  EXPECT_EQ(masked.NumEdges(0), 0u);
  EXPECT_EQ(masked.NumEdges(1), 2u);
  EXPECT_TRUE(masked.Neighbors(0, 1).empty());
  EXPECT_FALSE(masked.type_enabled(0));
  EXPECT_TRUE(masked.type_enabled(1));
  // Union view respects the mask.
  auto u0 = masked.UnionNeighbors(0);
  ASSERT_EQ(u0.size(), 2u);
  EXPECT_FLOAT_EQ(u0[0].weight, 1.0f);  // only type 1 remains
  // Original untouched and both views share one snapshot (no copy).
  EXPECT_EQ(net.NumEdges(0), 2u);
  EXPECT_EQ(masked.snapshot().get(), net.snapshot().get());
}

TEST(GraphViewTest, ViewKeepsSnapshotAlive) {
  GraphView view;
  {
    auto snap = BnSnapshot::Build(MakeStore(), 3, Raw());
    view = GraphView(snap);
  }
  // The temporary shared_ptr is gone; the view still serves reads.
  EXPECT_EQ(view.TotalEdges(), 4u);
  ASSERT_EQ(view.Neighbors(0, 1).size(), 2u);
}

TEST(SnapshotTest, IsolatedNodesHaveNoNeighbors) {
  GraphView net(BnSnapshot::Build(MakeStore(), 5, Raw()));
  EXPECT_TRUE(net.Neighbors(0, 4).empty());
  EXPECT_EQ(net.UnionDegree(4), 0u);
  // Normalization must not divide by zero on isolated nodes.
  GraphView norm(BnSnapshot::Build(MakeStore(), 5));
  EXPECT_TRUE(norm.Neighbors(0, 4).empty());
}

TEST(SnapshotDeathTest, BoundsChecked) {
  auto snap = BnSnapshot::Build(MakeStore(), 3, Raw());
  GraphView net(snap);
  EXPECT_DEATH(net.Neighbors(0, 3), "CHECK failed");
  EXPECT_DEATH(net.Neighbors(-1, 0), "CHECK failed");
  EXPECT_DEATH(net.WithTypeMasked(99), "CHECK failed");
  EXPECT_DEATH(GraphView().Neighbors(0, 0), "CHECK failed");
}

}  // namespace
}  // namespace turbo::bn

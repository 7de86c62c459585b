// Unit tests for the block-level dependence tracker (BDDT-style substrate).
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "dep/block_tracker.hpp"

namespace {

using sigrt::dep::Access;
using sigrt::dep::BlockTracker;
using sigrt::dep::Mode;
using sigrt::dep::Node;

// The tracker circulates raw Node*; these tests own the nodes (shared_ptr
// for convenience) and rely on the default no-op lifetime hooks.
std::shared_ptr<Node> make_node() { return std::make_shared<Node>(); }

std::size_t reg(BlockTracker& t, const std::shared_ptr<Node>& n,
                std::initializer_list<Access> accesses) {
  std::vector<Access> v(accesses);
  return t.register_node(n.get(), v);
}

// Out-param complete() wrapped back into a value for terse assertions.
std::vector<Node*> complete(BlockTracker& t, Node& n) {
  std::vector<Node*> out;
  t.complete(n, out);
  return out;
}

TEST(BlockTracker, FirstWriterHasNoDependencies) {
  BlockTracker t(64);
  alignas(64) std::array<int, 16> data{};
  auto w = make_node();
  EXPECT_EQ(reg(t, w, {sigrt::dep::out(data.data(), data.size())}), 0u);
}

TEST(BlockTracker, ReadAfterWriteCreatesEdge) {
  BlockTracker t(64);
  alignas(64) std::array<int, 16> data{};
  auto w = make_node();
  auto r = make_node();
  reg(t, w, {sigrt::dep::out(data.data(), data.size())});
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(data.data(), data.size())}), 1u);
}

TEST(BlockTracker, WriteAfterWriteCreatesEdge) {
  BlockTracker t(64);
  alignas(64) std::array<int, 16> data{};
  auto w1 = make_node();
  auto w2 = make_node();
  reg(t, w1, {sigrt::dep::out(data.data(), data.size())});
  EXPECT_EQ(reg(t, w2, {sigrt::dep::out(data.data(), data.size())}), 1u);
}

TEST(BlockTracker, WriteAfterReadsDependsOnAllReaders) {
  BlockTracker t(64);
  alignas(64) std::array<int, 16> data{};
  auto r1 = make_node();
  auto r2 = make_node();
  auto w = make_node();
  reg(t, r1, {sigrt::dep::in(data.data(), data.size())});
  reg(t, r2, {sigrt::dep::in(data.data(), data.size())});
  EXPECT_EQ(reg(t, w, {sigrt::dep::out(data.data(), data.size())}), 2u);
}

TEST(BlockTracker, ReadersDoNotDependOnEachOther) {
  BlockTracker t(64);
  alignas(64) std::array<int, 16> data{};
  auto r1 = make_node();
  auto r2 = make_node();
  reg(t, r1, {sigrt::dep::in(data.data(), data.size())});
  EXPECT_EQ(reg(t, r2, {sigrt::dep::in(data.data(), data.size())}), 0u);
}

TEST(BlockTracker, CompletedPredecessorAddsNoEdge) {
  BlockTracker t(64);
  alignas(64) std::array<int, 16> data{};
  auto w = make_node();
  auto r = make_node();
  reg(t, w, {sigrt::dep::out(data.data(), data.size())});
  (void)complete(t, *w);
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(data.data(), data.size())}), 0u);
}

TEST(BlockTracker, CompleteReturnsDependents) {
  BlockTracker t(64);
  alignas(64) std::array<int, 16> data{};
  auto w = make_node();
  auto r1 = make_node();
  auto r2 = make_node();
  reg(t, w, {sigrt::dep::out(data.data(), data.size())});
  reg(t, r1, {sigrt::dep::in(data.data(), data.size())});
  reg(t, r2, {sigrt::dep::in(data.data(), data.size())});
  auto deps = complete(t, *w);
  EXPECT_EQ(deps.size(), 2u);
}

TEST(BlockTracker, MultiBlockAccessDeduplicatesEdges) {
  BlockTracker t(64);
  // 1024 bytes spans 16+ blocks of 64B; still exactly one edge to the writer.
  alignas(64) std::array<int, 256> data{};
  auto w = make_node();
  auto r = make_node();
  reg(t, w, {sigrt::dep::out(data.data(), data.size())});
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(data.data(), data.size())}), 1u);
  EXPECT_EQ(complete(t, *w).size(), 1u);
}

TEST(BlockTracker, DisjointBlocksAreIndependent) {
  BlockTracker t(64);
  // Two regions far apart: writer of one never blocks reader of the other.
  alignas(64) std::array<int, 16> a{};
  alignas(64) std::array<int, 16> b{};
  auto w = make_node();
  auto r = make_node();
  reg(t, w, {sigrt::dep::out(a.data(), a.size())});
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(b.data(), b.size())}), 0u);
}

TEST(BlockTracker, InOutActsAsReadAndWrite) {
  BlockTracker t(64);
  alignas(64) std::array<int, 16> data{};
  auto w1 = make_node();
  auto rw = make_node();
  auto r = make_node();
  reg(t, w1, {sigrt::dep::out(data.data(), data.size())});
  EXPECT_EQ(reg(t, rw, {sigrt::dep::inout(data.data(), data.size())}), 1u);
  // Subsequent reader depends on the inout node (the new last writer).
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(data.data(), data.size())}), 1u);
  EXPECT_EQ(complete(t, *rw).size(), 1u);
}

TEST(BlockTracker, SelfOverlapWithinOneRegistrationIsNotADependency) {
  BlockTracker t(64);
  alignas(64) std::array<int, 16> data{};
  auto n = make_node();
  // Reads and writes the same range in one registration: no self edge.
  EXPECT_EQ(reg(t, n,
                {sigrt::dep::in(data.data(), data.size()),
                 sigrt::dep::out(data.data(), data.size())}),
            0u);
}

TEST(BlockTracker, EmptyAndNullAccessesIgnored) {
  BlockTracker t(64);
  auto n = make_node();
  EXPECT_EQ(reg(t, n, {Access{nullptr, 128, Mode::Out}, Access{&t, 0, Mode::In}}),
            0u);
}

TEST(BlockTracker, ResetForgetsHistory) {
  BlockTracker t(64);
  alignas(64) std::array<int, 16> data{};
  auto w = make_node();
  auto r = make_node();
  reg(t, w, {sigrt::dep::out(data.data(), data.size())});
  t.reset();
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(data.data(), data.size())}), 0u);
}

TEST(BlockTracker, StatsCountEdgesAndBlocks) {
  BlockTracker t(64);
  alignas(64) std::array<int, 32> data{};  // 128 bytes -> 2 blocks
  auto w = make_node();
  auto r = make_node();
  reg(t, w, {sigrt::dep::out(data.data(), data.size())});
  reg(t, r, {sigrt::dep::in(data.data(), data.size())});
  const auto s = t.stats();
  EXPECT_EQ(s.registered_nodes, 2u);
  EXPECT_EQ(s.edges, 1u);
  EXPECT_GE(s.blocks_touched, 2u);
}

TEST(BlockTracker, SubBlockRangesConflictConservatively) {
  BlockTracker t(1024);
  // Two 8-byte writes in the same 1 KiB block: conservative WAW edge.
  alignas(1024) std::array<double, 4> data{};
  auto w1 = make_node();
  auto w2 = make_node();
  reg(t, w1, {sigrt::dep::out(&data[0])});
  EXPECT_EQ(reg(t, w2, {sigrt::dep::out(&data[1])}), 1u);
}

TEST(BlockTracker, ChainOfWritersLinksPairwise) {
  BlockTracker t(64);
  alignas(64) std::array<int, 16> data{};
  std::vector<std::shared_ptr<Node>> nodes;
  for (int i = 0; i < 5; ++i) {
    auto n = make_node();
    const std::size_t deps = reg(t, n, {sigrt::dep::out(data.data(), data.size())});
    EXPECT_EQ(deps, i == 0 ? 0u : 1u);
    nodes.push_back(n);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(complete(t, *nodes[static_cast<std::size_t>(i)]).size(), 1u);
  }
}

}  // namespace

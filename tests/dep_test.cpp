// Unit tests for the byte-exact dependence tracker (BDDT-style substrate).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <random>
#include <vector>

#include "dep/block_tracker.hpp"

namespace {

using sigrt::dep::Access;
using sigrt::dep::BlockTracker;
using sigrt::dep::Mode;
using sigrt::dep::Node;

// The tracker circulates raw Node*; these tests own the nodes (shared_ptr
// for convenience) and rely on the default no-op lifetime hooks.
std::shared_ptr<Node> make_node() { return std::make_shared<Node>(); }

// Node whose lifetime hooks count, for checking that pins balance.
class CountingNode : public Node {
 public:
  void ref_retain() noexcept override { retains.fetch_add(1); }
  void ref_release() noexcept override { releases.fetch_add(1); }
  std::atomic<std::uint64_t> retains{0};
  std::atomic<std::uint64_t> releases{0};
};

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
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  auto w = make_node();
  EXPECT_EQ(reg(t, w, {sigrt::dep::out(data.data(), data.size())}), 0u);
}

TEST(BlockTracker, ReadAfterWriteCreatesEdge) {
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  auto w = make_node();
  auto r = make_node();
  reg(t, w, {sigrt::dep::out(data.data(), data.size())});
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(data.data(), data.size())}), 1u);
}

TEST(BlockTracker, WriteAfterWriteCreatesEdge) {
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  auto w1 = make_node();
  auto w2 = make_node();
  reg(t, w1, {sigrt::dep::out(data.data(), data.size())});
  EXPECT_EQ(reg(t, w2, {sigrt::dep::out(data.data(), data.size())}), 1u);
}

TEST(BlockTracker, WriteAfterReadsDependsOnAllReaders) {
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  auto r1 = make_node();
  auto r2 = make_node();
  auto w = make_node();
  reg(t, r1, {sigrt::dep::in(data.data(), data.size())});
  reg(t, r2, {sigrt::dep::in(data.data(), data.size())});
  EXPECT_EQ(reg(t, w, {sigrt::dep::out(data.data(), data.size())}), 2u);
}

TEST(BlockTracker, ReadersDoNotDependOnEachOther) {
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  auto r1 = make_node();
  auto r2 = make_node();
  reg(t, r1, {sigrt::dep::in(data.data(), data.size())});
  EXPECT_EQ(reg(t, r2, {sigrt::dep::in(data.data(), data.size())}), 0u);
}

TEST(BlockTracker, CompletedPredecessorAddsNoEdge) {
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  auto w = make_node();
  auto r = make_node();
  reg(t, w, {sigrt::dep::out(data.data(), data.size())});
  (void)complete(t, *w);
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(data.data(), data.size())}), 0u);
}

TEST(BlockTracker, CompleteReturnsDependents) {
  BlockTracker t;
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
  BlockTracker t;
  // 1024 bytes in one access: still exactly one edge to the writer.
  alignas(64) std::array<int, 256> data{};
  auto w = make_node();
  auto r = make_node();
  reg(t, w, {sigrt::dep::out(data.data(), data.size())});
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(data.data(), data.size())}), 1u);
  EXPECT_EQ(complete(t, *w).size(), 1u);
}

TEST(BlockTracker, DisjointBlocksAreIndependent) {
  BlockTracker t;
  // Two regions far apart: writer of one never blocks reader of the other.
  alignas(64) std::array<int, 16> a{};
  alignas(64) std::array<int, 16> b{};
  auto w = make_node();
  auto r = make_node();
  reg(t, w, {sigrt::dep::out(a.data(), a.size())});
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(b.data(), b.size())}), 0u);
}

TEST(BlockTracker, InOutActsAsReadAndWrite) {
  BlockTracker t;
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
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  auto n = make_node();
  // Reads and writes the same range in one registration: no self edge.
  EXPECT_EQ(reg(t, n,
                {sigrt::dep::in(data.data(), data.size()),
                 sigrt::dep::out(data.data(), data.size())}),
            0u);
}

TEST(BlockTracker, EmptyAndNullAccessesIgnored) {
  BlockTracker t;
  auto n = make_node();
  EXPECT_EQ(reg(t, n, {Access{nullptr, 128, Mode::Out}, Access{&t, 0, Mode::In}}),
            0u);
}

TEST(BlockTracker, ResetForgetsHistory) {
  BlockTracker t;
  alignas(64) std::array<int, 16> data{};
  auto w = make_node();
  auto r = make_node();
  reg(t, w, {sigrt::dep::out(data.data(), data.size())});
  t.reset();
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(data.data(), data.size())}), 0u);
}

// A buffer aligned to the tracker's block (chunk) size.
struct AlignedBuffer {
  AlignedBuffer(const BlockTracker& t, std::size_t blocks)
      : p(static_cast<std::uint8_t*>(
            std::aligned_alloc(t.block_bytes(), blocks * t.block_bytes()))) {}
  ~AlignedBuffer() { std::free(p); }
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  std::uint8_t* p;
};

TEST(BlockTracker, StatsCountEdgesAndBlocks) {
  BlockTracker t;
  const std::size_t chunk = t.block_bytes();
  AlignedBuffer buf(t, 2);
  // 128 bytes straddling the boundary between two chunks.
  std::uint8_t* data = buf.p + chunk - 64;
  auto w = make_node();
  auto r = make_node();
  reg(t, w, {sigrt::dep::out(data, 128)});
  reg(t, r, {sigrt::dep::in(data, 128)});
  const auto s = t.stats();
  EXPECT_EQ(s.registered_nodes, 2u);
  EXPECT_EQ(s.edges, 1u);
  EXPECT_EQ(s.blocks_touched, 2u);
}

TEST(BlockTracker, SubBlockRangesAreExact) {
  BlockTracker t;
  // Two disjoint 8-byte writes inside one 1 KiB span: independent.
  alignas(1024) std::array<double, 4> data{};
  auto w1 = make_node();
  auto w2 = make_node();
  reg(t, w1, {sigrt::dep::out(&data[0])});
  EXPECT_EQ(reg(t, w2, {sigrt::dep::out(&data[1])}), 0u);
  // Writes that share one byte conflict.
  auto* bytes = reinterpret_cast<std::uint8_t*>(data.data());
  auto w3 = make_node();
  EXPECT_EQ(reg(t, w3, {sigrt::dep::out(bytes + 15, 2)}), 1u);  // w2's last byte
  auto w4 = make_node();
  EXPECT_EQ(reg(t, w4, {sigrt::dep::out(bytes + 7, 1)}), 1u);  // w1's last byte
  // A read of w2's bytes short of w3's sees w2 only.
  auto r = make_node();
  EXPECT_EQ(reg(t, r, {sigrt::dep::in(bytes + 8, 7)}), 1u);
  EXPECT_EQ(complete(t, *w2).size(), 2u);                    // w3 and r
}

TEST(BlockTracker, UnalignedRowBandsAreIndependent) {
  BlockTracker t;
  // Listing 1 over a buffer 16 bytes past a page boundary (where malloc
  // puts large blocks): every band reads the whole input and writes its
  // own row of the output.  Rows share no byte, so no band waits on
  // another; the next frame's writer waits on every band.
  constexpr std::size_t kRow = 1024;
  constexpr std::size_t kRows = 96;  // output spans two chunks
  AlignedBuffer buf(t, 4);
  std::uint8_t* in = buf.p + 16;
  std::uint8_t* out = in + kRow * kRows;
  std::vector<std::shared_ptr<Node>> bands;
  for (std::size_t y = 0; y < kRows; ++y) {
    auto n = make_node();
    EXPECT_EQ(reg(t, n,
                  {sigrt::dep::in(static_cast<const std::uint8_t*>(in),
                                  kRow * kRows),
                   sigrt::dep::out(out + y * kRow, kRow)}),
              0u)
        << "band " << y;
    bands.push_back(n);
  }
  auto frame = make_node();
  EXPECT_EQ(reg(t, frame, {sigrt::dep::out(in, kRow * kRows)}), kRows);
  for (auto& n : bands) EXPECT_EQ(complete(t, *n).size(), 1u);
  EXPECT_EQ(t.stats().edges, kRows);
}

TEST(BlockTracker, ManyReadersCompleteInAnyOrder) {
  // 4,096 readers of one range, a random half completed in shuffled
  // order, then a writer: it links exactly to the readers still live,
  // and completing everything drops every pin.
  constexpr std::size_t kReaders = 4096;
  BlockTracker t;
  alignas(64) std::array<std::uint8_t, 3000> data{};
  std::vector<std::unique_ptr<CountingNode>> readers;
  for (std::size_t i = 0; i < kReaders; ++i) {
    readers.push_back(std::make_unique<CountingNode>());
    const Access a = sigrt::dep::in(data.data() + (i % 3), data.size() - 3);
    ASSERT_EQ(t.register_node(readers.back().get(), {&a, 1}), 0u);
  }
  std::vector<std::size_t> order(kReaders);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(7);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<Node*> out;
  for (std::size_t k = 0; k < kReaders / 2; ++k) {
    CountingNode& r = *readers[order[k]];
    t.complete(r, out);
    // complete() drops every pin at once, not when a writer sweeps them.
    ASSERT_EQ(r.retains.load(), r.releases.load()) << "reader " << order[k];
  }
  EXPECT_TRUE(out.empty());

  CountingNode writer;
  const Access w = sigrt::dep::out(data.data(), data.size());
  EXPECT_EQ(t.register_node(&writer, {&w, 1}), kReaders / 2);
  for (std::size_t k = kReaders / 2; k < kReaders; ++k) {
    out.clear();
    t.complete(*readers[order[k]], out);
    ASSERT_EQ(out.size(), 1u) << "reader " << order[k];
    EXPECT_EQ(out[0], &writer);
    out[0]->ref_release();
  }
  out.clear();
  t.complete(writer, out);
  EXPECT_TRUE(out.empty());
  for (std::size_t i = 0; i < kReaders; ++i) {
    EXPECT_EQ(readers[i]->retains.load(), readers[i]->releases.load())
        << "reader " << i;
  }
  EXPECT_EQ(writer.retains.load(), writer.releases.load());
  EXPECT_EQ(writer.retains.load(), 1 + kReaders / 2);  // pins + dependents
  // Nothing is parked any more: a new writer finds no predecessor.
  CountingNode next;
  EXPECT_EQ(t.register_node(&next, {&w, 1}), 0u);
}

TEST(BlockTracker, NodeParkedTwiceInOneRunIsRemovedOncePerVisit) {
  BlockTracker t;
  alignas(64) std::array<std::uint8_t, 256> data{};
  CountingNode r;
  // Two overlapping in() clauses park r twice in the bytes [64, 128).
  const std::array<Access, 2> both{
      sigrt::dep::in(data.data(), 128),
      sigrt::dep::in(data.data() + 64, 128)};
  EXPECT_EQ(t.register_node(&r, both), 0u);
  CountingNode w;
  const Access all = sigrt::dep::out(data.data(), data.size());
  EXPECT_EQ(t.register_node(&w, {&all, 1}), 1u);  // one edge, deduplicated
  std::vector<Node*> out;
  t.complete(r, out);
  ASSERT_EQ(out.size(), 1u);
  out[0]->ref_release();
  out.clear();
  t.complete(w, out);
  EXPECT_EQ(r.retains.load(), r.releases.load());
  EXPECT_EQ(w.retains.load(), w.releases.load());

  // Parked twice and completed before any writer: both occurrences go.
  CountingNode r2;
  EXPECT_EQ(t.register_node(&r2, both), 0u);
  out.clear();
  t.complete(r2, out);
  EXPECT_EQ(r2.retains.load(), r2.releases.load());
  CountingNode w2;
  EXPECT_EQ(t.register_node(&w2, {&all, 1}), 0u);
}

TEST(BlockTracker, ChainOfWritersLinksPairwise) {
  BlockTracker t;
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

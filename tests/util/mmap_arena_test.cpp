#include "util/mmap_arena.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

namespace imc {
namespace {

/// Writes `bytes` to a fresh file under the test temp dir and maps it
/// read-only — the only kind of mapping MmapStorage makes.
std::shared_ptr<const MmapStorage> map_bytes(const std::string& name,
                                             const void* bytes,
                                             std::size_t size) {
  const std::string path = ::testing::TempDir() + "/" + name;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(static_cast<const char*>(bytes),
              static_cast<std::streamsize>(size));
  }
  auto map =
      std::make_shared<const MmapStorage>(MmapStorage::open_readonly(path));
  std::remove(path.c_str());  // the mapping pins the inode
  return map;
}

TEST(MmapStorage, FileBackedMappingPersistsToDisk) {
  const std::string path = ::testing::TempDir() + "/imc_mmap_file_test.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "persisted-through-the-page-cache";
  }
  const MmapStorage mapped = MmapStorage::open_readonly(path);
  ASSERT_TRUE(mapped.valid());
  ASSERT_EQ(mapped.size(), 32U);
  EXPECT_EQ(std::memcmp(mapped.data(), "persisted-through-the-page-cache", 32),
            0);
  std::remove(path.c_str());
}

TEST(MmapStorage, OpenReadonlyRejectsMissingFile) {
  EXPECT_THROW((void)MmapStorage::open_readonly("/no/such/mapping.bin"),
               std::runtime_error);
}

TEST(MmapStorage, OpenReadonlyRejectsEmptyFile) {
  const std::string path = ::testing::TempDir() + "/imc_mmap_empty_test.bin";
  { std::ofstream out(path, std::ios::binary | std::ios::trunc); }
  EXPECT_THROW((void)MmapStorage::open_readonly(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ArenaVector, PushBackGrowthPreservesContents) {
  ArenaVector<std::uint64_t> arena;
  for (std::uint64_t i = 0; i < 10'000; ++i) arena.push_back(i * i);
  ASSERT_EQ(arena.size(), 10'000U);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    ASSERT_EQ(arena[i], i * i) << "slot " << i;
  }
  EXPECT_EQ(arena.back(), 9'999ULL * 9'999ULL);
}

TEST(ArenaVector, VectorShapedOperations) {
  ArenaVector<int> arena;
  arena.assign(5, 7);
  ASSERT_EQ(arena.size(), 5U);
  EXPECT_EQ(arena[4], 7);
  arena.resize(8, -1);
  EXPECT_EQ(arena[4], 7);
  EXPECT_EQ(arena[7], -1);
  arena.clear();
  EXPECT_TRUE(arena.empty());
  const int block[3] = {1, 2, 3};
  arena.append(block, block + 3);
  ASSERT_EQ(arena.size(), 3U);
  EXPECT_EQ(arena[2], 3);
  EXPECT_EQ(arena.span().size(), 3U);
  EXPECT_EQ(arena.span()[0], 1);
}

TEST(ArenaVector, PairElementsSurviveGrowth) {
  // The sample arena's element type — the one that motivated kArenaSafe
  // (libstdc++ std::pair is not trivially copyable, but is memcpy-safe).
  ArenaVector<std::pair<std::uint32_t, std::uint64_t>> arena;
  for (std::uint32_t i = 0; i < 5'000; ++i) {
    arena.emplace_back(i, ~std::uint64_t{i});
  }
  for (std::uint32_t i = 0; i < 5'000; ++i) {
    ASSERT_EQ(arena[i].first, i);
    ASSERT_EQ(arena[i].second, ~std::uint64_t{i});
  }
}

TEST(ArenaVector, MoveTransfersOwnership) {
  ArenaVector<int> arena;
  arena.assign(100, 9);
  const int* before = arena.data();
  ArenaVector<int> moved = std::move(arena);
  EXPECT_EQ(moved.data(), before);
  ASSERT_EQ(moved.size(), 100U);
  EXPECT_EQ(moved[99], 9);
  EXPECT_EQ(arena.size(), 0U);  // NOLINT(bugprone-use-after-move)
}

TEST(ArenaVector, BorrowedViewServesReadsZeroCopy) {
  std::uint64_t values[64];
  std::iota(values, values + 64, 100);
  const auto map = map_bytes("imc_arena_view.bin", values, sizeof(values));
  const auto* slab = reinterpret_cast<const std::uint64_t*>(map->data());

  ArenaVector<std::uint64_t> view =
      ArenaVector<std::uint64_t>::borrowed(slab, 64, map);
  EXPECT_TRUE(view.is_borrowed());
  // Const access is genuinely zero-copy (non-const data() would
  // copy-on-write materialize — that is the next test).
  EXPECT_EQ(std::as_const(view).data(), slab);
  EXPECT_EQ(std::as_const(view)[63], 163U);
  EXPECT_TRUE(view.is_borrowed());
}

TEST(ArenaVector, BorrowedViewMaterializesOnFirstMutation) {
  std::uint64_t values[16];
  std::iota(values, values + 16, 0);
  auto map = map_bytes("imc_arena_cow.bin", values, sizeof(values));
  const auto* slab = reinterpret_cast<const std::uint64_t*>(map->data());
  std::weak_ptr<const MmapStorage> watcher = map;

  ArenaVector<std::uint64_t> view =
      ArenaVector<std::uint64_t>::borrowed(slab, 16, std::move(map));
  view.push_back(16);  // first mutation: copy-on-write
  EXPECT_FALSE(view.is_borrowed());
  EXPECT_NE(view.data(), slab);
  ASSERT_EQ(view.size(), 17U);
  for (std::uint64_t i = 0; i < 17; ++i) ASSERT_EQ(view[i], i);
  // The keepalive was released with the borrow — nothing pins the mapping.
  EXPECT_TRUE(watcher.expired());
}

TEST(ArenaVector, BorrowedKeepaliveOutlivesTheSourceHandle) {
  std::uint64_t values[8] = {};
  values[7] = 777;
  auto map = map_bytes("imc_arena_keepalive.bin", values, sizeof(values));
  const auto* slab = reinterpret_cast<const std::uint64_t*>(map->data());
  ArenaVector<std::uint64_t> view =
      ArenaVector<std::uint64_t>::borrowed(slab, 8, map);
  map.reset();  // the view's keepalive must keep the mapping alive
  EXPECT_EQ(std::as_const(view)[7], 777U);
}

}  // namespace
}  // namespace imc

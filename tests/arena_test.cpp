// The chunked bump allocator (common/arena.h) behind the dependence-edge
// and per-launch scratch records: alignment, oversized fallback chunks,
// reset()-with-retained-chunks reuse (the steady-state no-malloc
// contract), the ArenaAllocator container bridge, and the
// use-after-reset rails — 0xDD poisoning in debug builds, real ASan
// poisoning when AddressSanitizer is on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "common/arena.h"

namespace visrt {
namespace {

TEST(Arena, RespectsAlignment) {
  Arena arena;
  for (std::size_t align : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                            std::size_t{8}, std::size_t{16}, std::size_t{32},
                            std::size_t{64}}) {
    for (std::size_t bytes : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                              std::size_t{100}}) {
      void* p = arena.alloc(bytes, align);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
          << "bytes=" << bytes << " align=" << align;
      std::memset(p, 0xAB, bytes); // must be writable
    }
  }
}

TEST(Arena, MakeConstructsOverAlignedTypes) {
  struct alignas(32) Wide {
    std::uint64_t a;
    std::uint64_t b;
  };
  Arena arena;
  for (int i = 0; i < 100; ++i) {
    Wide* w = arena.make<Wide>(Wide{std::uint64_t(i), std::uint64_t(i + 1)});
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(w) % alignof(Wide), 0u);
    EXPECT_EQ(w->a, std::uint64_t(i));
    EXPECT_EQ(w->b, std::uint64_t(i + 1));
  }
}

TEST(Arena, OversizedRequestsGetDedicatedChunks) {
  Arena arena(1024);
  const std::size_t before = arena.chunk_count();
  std::span<std::uint8_t> big = arena.make_span<std::uint8_t>(100 * 1024);
  ASSERT_EQ(big.size(), 100u * 1024u);
  EXPECT_GT(arena.chunk_count(), before);
  std::memset(big.data(), 0x5A, big.size());
  EXPECT_EQ(big[big.size() - 1], 0x5A);
  // The arena keeps bumping after an oversized detour.
  int* x = arena.make<int>(7);
  EXPECT_EQ(*x, 7);
}

TEST(Arena, ResetRetainsChunksForReuse) {
  Arena arena(1024);
  auto fill = [&] {
    for (int i = 0; i < 64; ++i) {
      std::span<std::uint64_t> s = arena.make_span<std::uint64_t>(32);
      std::iota(s.begin(), s.end(), std::uint64_t(i));
      ASSERT_EQ(s.front(), std::uint64_t(i));
    }
  };
  fill();
  const std::size_t reserved = arena.bytes_reserved();
  const std::size_t chunks = arena.chunk_count();
  EXPECT_GT(arena.bytes_allocated(), 0u);
  // Steady state: the same workload after reset() must not grow the
  // arena — no new chunks, no new reservation, i.e. no malloc at all.
  for (int round = 0; round < 10; ++round) {
    arena.reset();
    EXPECT_EQ(arena.bytes_allocated(), 0u);
    fill();
    EXPECT_EQ(arena.bytes_reserved(), reserved) << "round " << round;
    EXPECT_EQ(arena.chunk_count(), chunks) << "round " << round;
  }
}

TEST(Arena, CopySpanPersistsScratchContents) {
  Arena arena;
  std::vector<std::uint32_t> scratch = {3, 1, 4, 1, 5, 9, 2, 6};
  std::span<std::uint32_t> kept =
      arena.copy_span<std::uint32_t>(std::span<const std::uint32_t>(scratch));
  scratch.assign(scratch.size(), 0); // the source dies / is recycled
  ASSERT_EQ(kept.size(), 8u);
  EXPECT_EQ(kept[0], 3u);
  EXPECT_EQ(kept[5], 9u);
  EXPECT_TRUE(arena.copy_span<std::uint32_t>({}).empty());
  // make_span value-initializes.
  for (std::uint64_t v : arena.make_span<std::uint64_t>(16))
    EXPECT_EQ(v, 0u);
}

TEST(Arena, MoveTransfersTheChunks) {
  Arena a(1024);
  (void)a.make_span<std::uint8_t>(4096);
  const std::size_t reserved = a.bytes_reserved();
  Arena b = std::move(a);
  EXPECT_EQ(b.bytes_reserved(), reserved);
  // The moved-to arena keeps serving allocations.
  int* x = b.make<int>(11);
  EXPECT_EQ(*x, 11);
}

TEST(ArenaAllocator, BacksStandardContainers) {
  Arena arena;
  {
    // Non-trivially-destructible elements are allowed here: the vector
    // runs the destructors, the arena only recycles bytes afterwards.
    std::vector<std::string, ArenaAllocator<std::string>> v{
        ArenaAllocator<std::string>(&arena)};
    for (int i = 0; i < 100; ++i)
      v.push_back("a long enough string to defeat SSO #" + std::to_string(i));
    EXPECT_EQ(v.size(), 100u);
    EXPECT_NE(v[99].find("#99"), std::string::npos);
    EXPECT_GT(arena.bytes_allocated(), 0u);
    std::vector<std::string, ArenaAllocator<std::string>> w = v;
    EXPECT_EQ(w[0], v[0]);
  } // containers destroyed before the reset, per the contract
  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
}

TEST(ArenaAllocator, EqualityFollowsTheArena) {
  Arena a, b;
  EXPECT_TRUE(ArenaAllocator<int>(&a) == ArenaAllocator<int>(&a));
  EXPECT_FALSE(ArenaAllocator<int>(&a) == ArenaAllocator<int>(&b));
  // Converting constructor (what container rebinding uses).
  ArenaAllocator<long> rebound{ArenaAllocator<int>(&a)};
  EXPECT_EQ(rebound.arena(), &a);
}

TEST(Arena, UseAfterResetIsPoisoned) {
  Arena arena;
  std::span<std::uint8_t> s = arena.make_span<std::uint8_t>(64);
  std::memset(s.data(), 0x11, s.size());
  const volatile std::uint8_t* stale = s.data();
  arena.reset();
#if defined(VISRT_ARENA_ASAN)
  // ASan builds poison recycled regions for real: the stale bytes are
  // reported as poisoned without having to crash the test on a read.
  EXPECT_EQ(__asan_address_is_poisoned(
                const_cast<const std::uint8_t*>(stale)),
            1);
  // A fresh allocation unpoisons exactly the bytes it hands out.
  std::span<std::uint8_t> again = arena.make_span<std::uint8_t>(64);
  EXPECT_EQ(__asan_address_is_poisoned(again.data()), 0);
#elif !defined(NDEBUG)
  // Debug builds without ASan scribble 0xDD so a stale read is visibly
  // recycled memory rather than plausible stale data.
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(stale[i], 0xDD) << i;
#else
  (void)stale;
  GTEST_SKIP() << "use-after-reset rails are debug/ASan-only";
#endif
}

} // namespace
} // namespace visrt

// visrt/common/arena.h
//
// A chunked bump (arena) allocator for the analysis hot path.  The
// dependence-analysis loops allocate many short-lived, similarly-sized
// records per launch — dependence-edge predecessor lists, per-launch
// scratch — and the general-purpose
// allocator charges a lock or a CAS per call for them.  An Arena trades
// individual deallocation away: alloc() is a pointer bump, reset()
// reclaims everything at once while *retaining* the chunks, so a
// steady-state consumer (one launch after another, one retirement epoch
// after another) stops calling malloc entirely.
//
// Concurrency contract: an Arena is single-owner.
//
// Safety rails:
//   - reset() runs no destructors: make()/make_span() are restricted to
//     trivially destructible types at compile time.  ArenaAllocator lifts
//     that restriction (the owning container destroys its elements; the
//     arena only recycles the bytes).
//   - Debug builds (!NDEBUG) poison recycled memory with 0xDD on reset(),
//     so a stale pointer read after reset shows a recognizable pattern.
//   - AddressSanitizer builds additionally poison recycled regions with
//     the ASan API, so use-after-reset is a hard, reported error; alloc()
//     unpoisons exactly the bytes it hands out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VISRT_ARENA_ASAN 1
#endif
#endif
#if !defined(VISRT_ARENA_ASAN) && defined(__SANITIZE_ADDRESS__)
#define VISRT_ARENA_ASAN 1
#endif
#ifdef VISRT_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace visrt {

class Arena {
public:
  static constexpr std::size_t kDefaultChunkBytes = 16 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes < kMinChunkBytes ? kMinChunkBytes
                                                  : chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  /// Raw allocation: `bytes` bytes aligned to `align` (a power of two).
  /// Never returns nullptr (falls back to a dedicated chunk for oversized
  /// requests); alloc(0, ...) returns a valid, unique-enough pointer.
  void* alloc(std::size_t bytes, std::size_t align) {
    // Try the current chunk, then any retained follower; allocate a fresh
    // chunk only when nothing fits.  Alignment is computed on the actual
    // address — operator new[] only guarantees max_align_t, so an
    // offset-only computation would break over-aligned requests.
    while (cursor_ < chunks_.size()) {
      Chunk& c = chunks_[cursor_];
      const std::size_t at = aligned_offset(c, align);
      if (at + bytes <= c.size) {
        c.used = at + bytes;
        std::byte* p = c.data.get() + at;
        unpoison(p, bytes);
        live_bytes_ += bytes;
        return p;
      }
      ++cursor_;
      if (cursor_ < chunks_.size()) chunks_[cursor_].used = 0;
    }
    const std::size_t want = bytes + align > chunk_bytes_ ? bytes + align
                                                          : chunk_bytes_;
    chunks_.push_back(Chunk{std::make_unique<std::byte[]>(want), want, 0});
    cursor_ = chunks_.size() - 1;
    Chunk& c = chunks_.back();
    const std::size_t at = aligned_offset(c, align);
    c.used = at + bytes;
    std::byte* p = c.data.get() + at;
    live_bytes_ += bytes;
    return p;
  }

  /// Construct one T in the arena.  T must be trivially destructible:
  /// reset() reclaims the bytes without running destructors.
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena::make requires a trivially destructible type; "
                  "use ArenaAllocator for container-managed elements");
    return ::new (alloc(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }

  /// Allocate and value-initialize `n` Ts; returns the span.  Same
  /// trivial-destructibility restriction as make().
  template <typename T>
  std::span<T> make_span(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena::make_span requires a trivially destructible type");
    if (n == 0) return {};
    T* p = static_cast<T*>(alloc(n * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < n; ++i) ::new (p + i) T();
    return {p, n};
  }

  /// Copy a range into the arena (the canonical way to persist a scratch
  /// buffer's final contents).
  template <typename T>
  std::span<T> copy_span(std::span<const T> src) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Arena::copy_span requires a trivially copyable type");
    if (src.empty()) return {};
    T* p = static_cast<T*>(alloc(src.size() * sizeof(T), alignof(T)));
    std::memcpy(p, src.data(), src.size() * sizeof(T));
    return {p, src.size()};
  }

  /// Reclaim every allocation at once, retaining the chunks for reuse.
  /// Invalidates every pointer ever returned; debug builds poison the
  /// recycled bytes (0xDD), ASan builds poison them for real.
  void reset() {
    for (Chunk& c : chunks_) {
#if !defined(NDEBUG)
      // Alignment padding between allocations is still ASan-poisoned.
      unpoison(c.data.get(), c.used);
      std::memset(c.data.get(), 0xDD, c.used);
#endif
      poison(c.data.get(), c.size);
      c.used = 0;
    }
    cursor_ = 0;
    live_bytes_ = 0;
  }

  /// Bytes handed out since the last reset (excludes alignment padding).
  std::size_t bytes_allocated() const { return live_bytes_; }
  /// Total capacity held across all chunks (survives reset()).
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }
  std::size_t chunk_count() const { return chunks_.size(); }

private:
  static constexpr std::size_t kMinChunkBytes = 256;

  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static std::size_t align_up(std::size_t at, std::size_t align) {
    return (at + align - 1) & ~(align - 1);
  }

  /// First offset >= c.used whose *address* is `align`-aligned.
  static std::size_t aligned_offset(const Chunk& c, std::size_t align) {
    const auto base = reinterpret_cast<std::uintptr_t>(c.data.get());
    return align_up(base + c.used, align) - base;
  }

  static void poison(const void* p, std::size_t n) {
#ifdef VISRT_ARENA_ASAN
    ASAN_POISON_MEMORY_REGION(p, n);
#else
    (void)p;
    (void)n;
#endif
  }
  static void unpoison(const void* p, std::size_t n) {
#ifdef VISRT_ARENA_ASAN
    ASAN_UNPOISON_MEMORY_REGION(p, n);
#else
    (void)p;
    (void)n;
#endif
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t cursor_ = 0; ///< chunk currently being bumped
  std::size_t live_bytes_ = 0;
};

/// A std::allocator-compatible view of an Arena, so standard containers
/// can live on arena memory.  deallocate() is a no-op — storage is
/// reclaimed by Arena::reset(), which must happen only after the
/// container is gone (per-launch scratch dies before the next launch's
/// reset).  Unlike Arena::make, element types may be non-trivially
/// destructible: the container runs the destructors, the arena only
/// recycles bytes.
template <typename T>
class ArenaAllocator {
public:
  using value_type = T;

  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->alloc(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) {} // reclaimed wholesale by reset()

  Arena* arena() const { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }

private:
  Arena* arena_;
};

} // namespace visrt

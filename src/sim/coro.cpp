#include "sim/coro.hpp"

#include <array>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define GFLINK_FRAME_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GFLINK_FRAME_POOL_ASAN 1
#endif
#endif

#if defined(GFLINK_FRAME_POOL_ASAN)
#include <sanitizer/asan_interface.h>
// A frame on a free list is poisoned, so touching a destroyed coroutine
// frame is still reported as a use-after-free although the memory was never
// returned to the allocator.
#define GFLINK_FRAME_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define GFLINK_FRAME_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define GFLINK_FRAME_POISON(p, n) ((void)(p), (void)(n))
#define GFLINK_FRAME_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace gflink::sim::detail {
namespace {

constexpr std::size_t kFrameClasses = kMaxPooledFrame / kFrameClassBytes;

struct FreeFrame {
  FreeFrame* next;
};

// Trivially destructible, so frames freed while the thread's other
// thread_local objects are being destroyed still find valid lists.
struct FreeLists {
  std::array<FreeFrame*, kFrameClasses> head;
  bool released;
};
constinit thread_local FreeLists lists{};

bool pooled(std::size_t bytes) { return bytes != 0 && bytes <= kMaxPooledFrame; }
std::size_t class_of(std::size_t bytes) { return (bytes - 1) / kFrameClassBytes; }
std::size_t class_bytes(std::size_t cls) { return (cls + 1) * kFrameClassBytes; }

// Returns every pooled frame of the thread to global delete at thread exit;
// frames freed after that go straight to global delete.
struct Releaser {
  Releaser() = default;
  Releaser(const Releaser&) = delete;
  Releaser& operator=(const Releaser&) = delete;
  ~Releaser() {
    for (std::size_t cls = 0; cls < kFrameClasses; ++cls) {
      FreeFrame* f = lists.head[cls];
      while (f != nullptr) {
        GFLINK_FRAME_UNPOISON(f, class_bytes(cls));
        FreeFrame* next = f->next;
        ::operator delete(f, class_bytes(cls));
        f = next;
      }
      lists.head[cls] = nullptr;
    }
    lists.released = true;
  }
  void arm() {}
};
thread_local Releaser releaser;

}  // namespace

void* frame_alloc(std::size_t bytes) {
  if (!pooled(bytes)) return ::operator new(bytes);
  const std::size_t cls = class_of(bytes);
  FreeFrame* f = lists.head[cls];
  if (f == nullptr) return ::operator new(class_bytes(cls));
  GFLINK_FRAME_UNPOISON(f, class_bytes(cls));
  lists.head[cls] = f->next;
  return f;
}

void frame_free(void* frame, std::size_t bytes) noexcept {
  if (!pooled(bytes)) {
    ::operator delete(frame, bytes);
    return;
  }
  const std::size_t cls = class_of(bytes);
  if (lists.released) {
    ::operator delete(frame, class_bytes(cls));
    return;
  }
  // First frame on an empty list: make sure this thread releases its lists.
  if (lists.head[cls] == nullptr) releaser.arm();
  auto* f = static_cast<FreeFrame*>(frame);
  f->next = lists.head[cls];
  lists.head[cls] = f;
  GFLINK_FRAME_POISON(f, class_bytes(cls));
}

}  // namespace gflink::sim::detail

#include "util/page_allocator.h"

#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define GSB_PAGE_MMAP 1
#endif

#if defined(__SANITIZE_ADDRESS__)
#undef GSB_PAGE_MMAP
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#undef GSB_PAGE_MMAP
#endif
#endif

namespace gsb::util {

bool page_backed() noexcept {
#if GSB_PAGE_MMAP
  return true;
#else
  return false;
#endif
}

void* allocate_pages(std::size_t bytes) {
#if GSB_PAGE_MMAP
  if (bytes > 0) {
    int flags = MAP_PRIVATE | MAP_ANONYMOUS;
#ifdef MAP_POPULATE
    flags |= MAP_POPULATE;
#endif
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, flags, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return p;
  }
#endif
  void* p = ::operator new(bytes, std::align_val_t{kPageAllocatorAlignment});
  std::memset(p, 0, bytes);
  return p;
}

void deallocate_pages(void* p, [[maybe_unused]] std::size_t bytes) noexcept {
  if (p == nullptr) return;
#if GSB_PAGE_MMAP
  if (bytes > 0) {
    ::munmap(p, bytes);
    return;
  }
#endif
  ::operator delete(p, std::align_val_t{kPageAllocatorAlignment});
}

}  // namespace gsb::util

#ifndef GSB_UTIL_PAGE_ALLOCATOR_H
#define GSB_UTIL_PAGE_ALLOCATOR_H

/// \file page_allocator.h
/// Page-backed storage for the buffers that scale with genes × samples.
///
/// glibc serves a large malloc from its own mmap, but raises its mmap
/// threshold to the size of each such block freed.  After one expression
/// matrix is released the next ones land on the brk heap, and a freed block
/// there stays resident until everything above it is freed too.  So a
/// pipeline that copies and drops several matrices keeps a peak set by
/// heap fragmentation, not by its live data.  allocate_pages gives each
/// buffer its own anonymous mapping (populated up front where the kernel
/// offers MAP_POPULATE, since the caller writes every page next) and
/// deallocate_pages unmaps it, so a freed matrix goes back to the kernel at
/// once.
///
/// Every allocation is zero-filled: mapped pages come zeroed from the
/// kernel and are not zeroed again.  Without mmap, and under
/// AddressSanitizer (which checks bounds only on its own heap), buffers
/// come from aligned operator new and are zeroed there.  Allocations are
/// at least kPageAllocatorAlignment bytes aligned either way.

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace gsb::util {

/// Minimum alignment of every allocate_pages block (a cache line).
inline constexpr std::size_t kPageAllocatorAlignment = 64;

/// True when allocations are their own page mappings (false without mmap
/// and under AddressSanitizer).
bool page_backed() noexcept;

/// \p bytes of zero-filled storage; throws std::bad_alloc on failure.
void* allocate_pages(std::size_t bytes);
/// Releases an allocate_pages block of \p bytes.
void deallocate_pages(void* p, std::size_t bytes) noexcept;

/// A fixed-size, zero-filled array on its own pages.  It has no resize: a
/// block is zero only when fresh, so the size is set once.
template <typename T>
class PageArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  PageArray() = default;
  explicit PageArray(std::size_t size) : size_(size) {
    if (size > static_cast<std::size_t>(-1) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    if (size > 0) data_ = static_cast<T*>(allocate_pages(size * sizeof(T)));
  }
  PageArray(const PageArray& other) : PageArray(other.size_) {
    if (size_ > 0) std::memcpy(data_, other.data_, size_ * sizeof(T));
  }
  PageArray(PageArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  PageArray& operator=(PageArray other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }
  ~PageArray() { deallocate_pages(data_, size_ * sizeof(T)); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace gsb::util

#endif  // GSB_UTIL_PAGE_ALLOCATOR_H

// Growable ring buffer used for C-FIFO and ring token storage.
//
// C-FIFO deadline queues and ring injection queues only ever grow to a
// small, workload-determined high-water mark and then recycle the same
// storage for the rest of the run. A power-of-two circular buffer fits that
// shape: growth costs one heap block, and every token afterwards lives in a
// contiguous, cache-friendly ring with no steady-state allocation.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>

namespace acc {

/// Growable circular FIFO over trivially copyable tokens. Supports exactly
/// the operations the simulator's token queues need: push_back / pop_front
/// / indexed access from the front. Growth doubles the power-of-two
/// capacity (index masking keeps the hot paths modulo-free), copies the
/// live window into a fresh heap block and frees the old one.
template <typename T>
class RingBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "RingBuffer tokens are relocated with memcpy");

 public:
  RingBuffer() = default;
  ~RingBuffer() { ::operator delete(buf_); }

  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  RingBuffer(RingBuffer&& other) noexcept { steal(other); }
  RingBuffer& operator=(RingBuffer&& other) noexcept {
    if (this != &other) {
      ::operator delete(buf_);
      steal(other);
    }
    return *this;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  [[nodiscard]] const T& front() const { return buf_[head_]; }
  [[nodiscard]] const T& back() const {
    return buf_[(head_ + size_ - 1) & mask_];
  }
  /// i-th element from the front (deadline queues binary-search this).
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & mask_];
  }

  void push_back(const T& v) {
    if (size_ == cap_) grow();
    buf_[(head_ + size_) & mask_] = v;
    ++size_;
  }

  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    const std::size_t new_cap = cap_ == 0 ? 8 : cap_ * 2;
    T* fresh = static_cast<T*>(::operator new(new_cap * sizeof(T)));
    // Unroll the circular window into the front of the fresh block.
    if (size_ > 0) {
      const std::size_t tail = cap_ - head_ < size_ ? cap_ - head_ : size_;
      std::memcpy(fresh, buf_ + head_, tail * sizeof(T));
      if (tail < size_) std::memcpy(fresh + tail, buf_, (size_ - tail) * sizeof(T));
    }
    ::operator delete(buf_);
    buf_ = fresh;
    cap_ = new_cap;
    mask_ = new_cap - 1;
    head_ = 0;
  }

  void steal(RingBuffer& other) {
    buf_ = other.buf_;
    cap_ = other.cap_;
    mask_ = other.mask_;
    head_ = other.head_;
    size_ = other.size_;
    other.buf_ = nullptr;
    other.cap_ = other.mask_ = other.head_ = other.size_ = 0;
  }

  T* buf_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace acc

#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

namespace pathload {

/// A grow-only FIFO ring over a power-of-two array.
///
/// Link queues, delay lines (links and TCP ACKs) and the TCP rate
/// sampler's transmit records push at the back and pop at the front at
/// packet rate. `std::deque` allocates and frees a node every few packets as
/// the queue walks through memory; this ring reuses one array and only
/// allocates when it must double, so a link that has reached its peak
/// occupancy never allocates again. Elements keep value semantics and must
/// be trivially copyable (packets and delay-line entries are), which makes
/// growth a plain copy in FIFO order.
template <typename T>
class RingBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "RingBuffer holds trivially copyable values only");

 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }

  /// The i-th element from the front (0 is the front).
  T& operator[](std::size_t i) { return buf_[(head_ + i) & (cap_ - 1)]; }
  const T& operator[](std::size_t i) const { return buf_[(head_ + i) & (cap_ - 1)]; }
  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }

  void push_back(const T& v) {
    if (size_ == cap_) grow();
    buf_[(head_ + size_) & (cap_ - 1)] = v;
    ++size_;
  }

  /// Requires !empty().
  void pop_front() {
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  /// Insert `v` before the i-th element (i == size() appends), moving the
  /// elements behind it one place back, a contiguous run at a time.
  void insert(std::size_t i, const T& v) {
    if (size_ == cap_) grow();
    for (std::size_t j = size_; j > i;) {
      // Logical j lands on physical `to`; the elements before it up to
      // the wrap, or up to i, move together.
      const std::size_t to = (head_ + j) & (cap_ - 1);
      if (to == 0) {
        buf_[0] = buf_[cap_ - 1];
        --j;
        continue;
      }
      const std::size_t n = j - i < to ? j - i : to;
      std::memmove(&buf_[to - n + 1], &buf_[to - n], n * sizeof(T));
      j -= n;
    }
    buf_[(head_ + i) & (cap_ - 1)] = v;
    ++size_;
  }

  /// Drop every element, keeping the array.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  void grow() {
    const std::size_t cap = cap_ == 0 ? kMinCapacity : 2 * cap_;
    auto next = std::make_unique_for_overwrite<T[]>(cap);
    for (std::size_t i = 0; i < size_; ++i) next[i] = (*this)[i];
    buf_ = std::move(next);
    cap_ = cap;
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  std::size_t cap_{0};  // zero or a power of two
  std::size_t head_{0};
  std::size_t size_{0};
};

}  // namespace pathload

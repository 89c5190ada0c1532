// The serve daemon's admission queue.
//
// A small thread-safe FIFO between the acceptor and the workers with a
// hard capacity bound. At the bound the oldest queued item is handed
// back to the producer to make room, so the daemon can answer that
// connection BUSY before closing it: overload sheds visibly at the edge
// instead of growing without bound. A closed queue admits nothing and
// sheds nothing; its remaining items belong to the draining consumers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>

#include "util/error.hpp"

namespace repro::serve {

template <typename T>
class AdmissionQueue {
 public:
  /// Throws ConfigError when `capacity` is zero.
  explicit AdmissionQueue(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ == 0) {
      throw ConfigError("admission queue: capacity must be positive");
    }
  }

  /// Admits `item`, shedding the oldest queued item into `evicted` when
  /// the queue is full (`evicted` is engaged only then). Returns false
  /// when the queue is closed; the item is then not moved from and
  /// nothing is shed.
  [[nodiscard]] bool offer(T&& item, std::optional<T>& evicted) {
    evicted.reset();
    {
      std::lock_guard lock{mutex_};
      if (closed_) return false;
      if (items_.size() >= capacity_) {
        evicted = std::move(items_.front());
        items_.pop_front();
      }
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  /// Blocking take, oldest first; empty only when the queue is closed
  /// and drained.
  [[nodiscard]] std::optional<T> pop() {
    std::unique_lock lock{mutex_};
    ready_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Rejects every later offer and wakes the consumers, which drain
  /// what remains.
  void close() {
    {
      std::lock_guard lock{mutex_};
      closed_ = true;
    }
    ready_.notify_all();
  }

 private:
  std::size_t capacity_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace repro::serve

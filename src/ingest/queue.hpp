// Bounded queues with explicit backpressure.
//
// A small thread-safe FIFO sitting between a producer and a consumer
// with a hard capacity bound; what happens at the bound is the overflow
// policy: kBlock makes the producer wait (counted as a stall),
// kShedOldest drops the oldest queued item to admit the new one
// (counted as shed). Two users share the template: the WAL appender
// buffers serialized records (BoundedRecordQueue), and the serve daemon
// admits client connections (its admission queue sheds with an explicit
// BUSY reply instead of stalling ingest). The serial epoch driver uses
// the non-blocking offer()/try_pop() pair so every counter stays
// deterministic; the blocking push()/pop() pair exists for genuinely
// concurrent producers and is exercised under TSan.
//
// Accounting invariant (checked by ingest_test): at any quiescent
// point, pushed == popped + shed + depth. A closed queue never admits
// and never sheds — close() freezes the totals except for the draining
// pops.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "util/error.hpp"

namespace repro::ingest {

enum class OverflowPolicy : std::uint8_t {
  kBlock = 0,      // producer waits for room
  kShedOldest = 1, // oldest queued item is dropped to make room
};

template <typename T>
class BoundedQueue {
 public:
  /// Throws ConfigError when `capacity` is zero.
  BoundedQueue(std::size_t capacity, OverflowPolicy policy)
      : capacity_(capacity), policy_(policy) {
    if (capacity_ == 0) {
      throw ConfigError("bounded queue: capacity must be positive");
    }
  }

  /// Non-blocking admit. Returns false when the queue is closed, or —
  /// under kBlock — full (counted as a stall). The item is moved from
  /// only when admitted: on a false return it stays with the caller,
  /// who can drain or shed and offer the same object again. Under
  /// kShedOldest a full queue drops its oldest item and always admits.
  [[nodiscard]] bool offer(T&& item) {
    std::optional<T> discarded;
    return offer(std::move(item), discarded);
  }

  /// Like offer(), but hands a displaced item back through `evicted`
  /// (engaged only when a kShedOldest queue actually shed) so the
  /// caller can dispose of it — the serve daemon answers BUSY on the
  /// evicted connection before closing it instead of leaking the fd.
  [[nodiscard]] bool offer(T&& item, std::optional<T>& evicted) {
    evicted.reset();
    std::lock_guard lock{mutex_};
    if (closed_) return false;
    if (items_.size() >= capacity_) {
      if (policy_ == OverflowPolicy::kBlock) {
        ++stats_.stalls;
        return false;
      }
      evicted = std::move(items_.front());
      items_.pop_front();
      ++stats_.shed;
    }
    admit(std::move(item));
    return true;
  }

  /// Blocking admit: waits for room under kBlock (each wait counted as
  /// one stall), sheds under kShedOldest. Returns false only when the
  /// queue was closed — and then without shedding: a closed queue's
  /// remaining items belong to the draining consumer, so rejecting the
  /// new item must never cost a queued one.
  bool push(T item) {
    std::unique_lock lock{mutex_};
    if (policy_ == OverflowPolicy::kBlock) {
      if (items_.size() >= capacity_ && !closed_) ++stats_.stalls;
      room_.wait(lock,
                 [this] { return items_.size() < capacity_ || closed_; });
      if (closed_) return false;
    } else {
      if (closed_) return false;
      if (items_.size() >= capacity_) {
        items_.pop_front();
        ++stats_.shed;
      }
    }
    admit(std::move(item));
    return true;
  }

  /// Non-blocking take.
  [[nodiscard]] std::optional<T> try_pop() {
    std::lock_guard lock{mutex_};
    return take();
  }

  /// Blocking take; empty only when the queue is closed and drained.
  [[nodiscard]] std::optional<T> pop() {
    std::unique_lock lock{mutex_};
    ready_.wait(lock, [this] { return !items_.empty() || closed_; });
    return take();
  }

  /// Wakes all waiters; pushes are rejected from here on, pops drain
  /// what remains.
  void close() {
    std::lock_guard lock{mutex_};
    closed_ = true;
    room_.notify_all();
    ready_.notify_all();
  }

  struct Stats {
    std::uint64_t pushed = 0;   // items admitted
    std::uint64_t popped = 0;   // items taken
    std::uint64_t shed = 0;     // items dropped by kShedOldest
    std::uint64_t stalls = 0;   // kBlock rejections/waits at capacity
    std::uint64_t high_water = 0;  // max depth ever observed
  };
  [[nodiscard]] Stats stats() const {
    std::lock_guard lock{mutex_};
    return stats_;
  }

  /// Items currently queued (pushed - popped - shed).
  [[nodiscard]] std::size_t depth() const {
    std::lock_guard lock{mutex_};
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  // Callers hold `mutex_`.
  void admit(T&& item) {
    items_.push_back(std::move(item));
    ++stats_.pushed;
    stats_.high_water = std::max<std::uint64_t>(stats_.high_water,
                                                items_.size());
    ready_.notify_one();
  }

  // Callers hold `mutex_`.
  [[nodiscard]] std::optional<T> take() {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    ++stats_.popped;
    room_.notify_one();
    return item;
  }

  std::size_t capacity_;
  OverflowPolicy policy_;
  mutable std::mutex mutex_;
  std::condition_variable room_;
  std::condition_variable ready_;
  std::deque<T> items_;
  Stats stats_;
  bool closed_ = false;
};

/// The WAL-side instantiation: serialized records in flight between the
/// sensor delivery layer and the appender.
using BoundedRecordQueue = BoundedQueue<std::vector<std::uint8_t>>;

}  // namespace repro::ingest

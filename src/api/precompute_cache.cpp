#include "api/precompute_cache.hpp"

#include <utility>

#include "util/check.hpp"

namespace suu::api {

PrecomputeCache& PrecomputeCache::global() {
  static PrecomputeCache* cache = new PrecomputeCache();
  return *cache;
}

PreparedParts PrecomputeCache::get_or_prepare(
    std::uint64_t key, const std::function<PreparedParts()>& make) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      // Touch: move to most-recently-used position.
      lru_.splice(lru_.end(), lru_, it->second.lru_it);
      return it->second.parts;
    }
    ++stats_.misses;
  }
  PreparedParts made = make();  // outside the lock: may solve LPs
  SUU_CHECK_MSG(made.factory != nullptr, "preparer returned a null factory");
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A racing thread inserted first; both computed the same deterministic
    // value, so returning our own copy changes nothing. Touch the entry —
    // this lookup still counts as a use.
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
    return made;
  }
  const auto lru_it = lru_.insert(lru_.end(), key);
  entries_.emplace(key, Entry{made, lru_it});
  evict_over_capacity_locked();
  return made;
}

void PrecomputeCache::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity > 0 ? capacity : 1;
  evict_over_capacity_locked();
}

void PrecomputeCache::pin(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  ++pins_[key];
}

void PrecomputeCache::unpin(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = pins_.find(key);
  if (it == pins_.end()) return;
  if (--it->second == 0) {
    pins_.erase(it);
    evict_over_capacity_locked();
  }
}

void PrecomputeCache::evict_over_capacity_locked() {
  // Oldest-first, skipping pinned keys. When everything left is pinned the
  // iterator runs off the end and the cache stays over capacity until an
  // unpin makes a victim available.
  auto victim = lru_.begin();
  while (entries_.size() > capacity_ && victim != lru_.end()) {
    if (pins_.count(*victim) > 0) {
      ++victim;
      continue;
    }
    entries_.erase(*victim);
    victim = lru_.erase(victim);
    ++stats_.evictions;
  }
}

void PrecomputeCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
}

void PrecomputeCache::reset_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = Stats{};
}

PrecomputeCache::Stats PrecomputeCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.size = entries_.size();
  s.capacity = capacity_;
  s.pinned = pins_.size();
  return s;
}

}  // namespace suu::api

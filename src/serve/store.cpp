#include "serve/store.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>

namespace gt::serve {

namespace {

[[noreturn]] void die(const char* msg) {
  std::fprintf(stderr, "serve::ReputationStore: %s\n", msg);
  std::abort();
}

}  // namespace

// Immutable once published: built by a writer, then only ever read until
// reclaimed. scores[i] is peer i's global reputation.
struct ReputationStore::Snapshot {
  std::uint64_t epoch = 0;
  std::vector<double> scores;
};

ReputationStore::ReputationStore(StoreConfig config) {
  if (config.max_readers == 0) die("max_readers must be > 0");
  slots_ = std::vector<ReaderSlot>(config.max_readers);
}

ReputationStore::~ReputationStore() {
  // No readers may be alive here; free everything still reachable.
  delete current_.load(std::memory_order_relaxed);
  for (auto& e : limbo_) delete e.snap;
}

// --- read path --------------------------------------------------------------

std::uint64_t ReputationStore::pin_slot(std::size_t slot) noexcept {
  // Pin-and-validate loop (see header). Both the pin store and the
  // validating load are seq_cst so the writer's slot scan after an epoch
  // advance is guaranteed to observe the pin.
  for (;;) {
    const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
    slots_[slot].epoch.store(e, std::memory_order_seq_cst);
    if (global_epoch_.load(std::memory_order_seq_cst) == e) return e;
  }
}

ReputationStore::ReadGuard ReputationStore::reader() {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    bool expected = false;
    if (slots_[i].taken.compare_exchange_strong(expected, true,
                                                std::memory_order_acq_rel)) {
      pin_slot(i);
      return ReadGuard(this, i);
    }
  }
  die("reader slots exhausted (raise StoreConfig::max_readers)");
}

void ReputationStore::ReadGuard::refresh() {
  if (store_ == nullptr) return;
  store_->pin_slot(slot_);
}

void ReputationStore::ReadGuard::release() {
  if (store_ == nullptr) return;
  store_->slots_[slot_].epoch.store(0, std::memory_order_release);
  store_->slots_[slot_].taken.store(false, std::memory_order_release);
  store_ = nullptr;
}

LookupResult ReputationStore::lookup(const ReadGuard& guard,
                                     std::uint64_t node) const {
  if (guard.store_ != this) die("lookup with a foreign/released ReadGuard");
  const Snapshot* snap = current_.load(std::memory_order_acquire);
  if (snap == nullptr || node >= snap->scores.size()) return {};
  return {snap->epoch, snap->scores[static_cast<std::size_t>(node)]};
}

// --- write path -------------------------------------------------------------

std::uint64_t ReputationStore::publish(const std::vector<double>& scores) {
  // The copy is the expensive part; make it before taking the lock.
  auto fresh = std::make_unique<Snapshot>(Snapshot{0, scores});
  std::lock_guard<std::mutex> lock(write_mutex_);
  const std::uint64_t epoch = published_epoch_.load(std::memory_order_relaxed) + 1;
  fresh->epoch = epoch;
  const std::uint64_t retire_tag = global_epoch_.load(std::memory_order_relaxed);
  Snapshot* old = current_.exchange(fresh.release(), std::memory_order_acq_rel);
  if (old != nullptr) limbo_.push_back({old, retire_tag});
  published_epoch_.store(epoch, std::memory_order_release);
  global_epoch_.fetch_add(1, std::memory_order_seq_cst);
  reclaim_locked();
  return epoch;
}

void ReputationStore::reclaim_locked() {
  // A limbo snapshot tagged T was reachable only while global epoch <= T;
  // any reader that can still touch it holds a pin <= T. Free entries whose
  // tag is strictly below every active pin (and below the current epoch,
  // which it always is after the advance).
  std::uint64_t min_pin = global_epoch_.load(std::memory_order_seq_cst);
  for (const auto& slot : slots_) {
    const std::uint64_t e = slot.epoch.load(std::memory_order_seq_cst);
    if (e != 0 && e < min_pin) min_pin = e;
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < limbo_.size(); ++i) {
    if (limbo_[i].tag < min_pin) {
      delete limbo_[i].snap;
      snapshots_reclaimed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      limbo_[kept++] = limbo_[i];
    }
  }
  limbo_.resize(kept);
}

// --- ingest queue -----------------------------------------------------------

void ReputationStore::enqueue_feedback(const FeedbackUpdate& f) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(ingest_mutex_);
    pending_.push_back(f);
    if (wake_at_ != 0 && pending_.size() >= wake_at_) {
      wake_at_ = 0;
      wake = true;
    }
  }
  feedback_enqueued_.fetch_add(1, std::memory_order_relaxed);
  if (wake) feedback_cv_.notify_all();
}

std::size_t ReputationStore::wait_feedback(std::size_t at_least,
                                           std::chrono::nanoseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(ingest_mutex_);
  ++waiters_;
  while (pending_.size() < at_least) {
    // Every waiter re-arms on each pass, so an enqueue that woke everyone
    // for a lower threshold leaves the higher ones waiting.
    if (wake_at_ == 0 || at_least < wake_at_) wake_at_ = at_least;
    if (feedback_cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
  }
  if (--waiters_ == 0) wake_at_ = 0;
  return pending_.size();
}

std::size_t ReputationStore::drain_feedback(std::vector<FeedbackUpdate>& out) {
  out.clear();
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  out.swap(pending_);
  return out.size();
}

std::size_t ReputationStore::feedback_pending() const {
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  return pending_.size();
}

// --- accounting -------------------------------------------------------------

std::size_t ReputationStore::snapshots_live() const {
  return current_.load(std::memory_order_acquire) != nullptr ? 1 : 0;
}

std::size_t ReputationStore::limbo_size() const {
  std::lock_guard<std::mutex> lock(write_mutex_);
  return limbo_.size();
}

}  // namespace gt::serve

// serve::ReputationStore — the live serving half of the reputation system:
// a concurrent score store with read-mostly lock-free lookups.
//
// Inspired by Suricata's IPReputationCtx (a radix tree guarded by per-tree
// locks), but redesigned for millions of lookups/s: instead of locking a
// structure on every query, the store publishes the global reputation
// vector V as one *immutable* snapshot — the dense score array indexed by
// peer id 0..n-1, stamped with its publish epoch — behind a single atomic
// pointer. Readers never take a mutex:
//
//   1. pin: a registered reader slot stores the current global epoch
//      (seq_cst) and re-validates the global epoch afterwards — if the
//      epoch moved, re-pin. The validation closes the classic EBR race:
//      once the validating load returns epoch E, the pin store is ordered
//      before any writer's advance to E+1 in the seq_cst total order, so
//      a writer scanning reader slots after advancing must see the pin.
//   2. load the snapshot pointer (acquire) and index the immutable array —
//      (epoch, score) pairs are consistent by construction because both
//      come from one snapshot, and one thread's successive lookups never
//      see the epoch go backwards because there is only one pointer.
//   3. unpin: store 0 (release) into the slot.
//
// Writers (serialized by a mutex — the write path may lock; only reads are
// lock-free) copy the vector into a fresh snapshot, swap it in, move the
// old one onto a limbo list tagged with the pre-advance epoch, advance the
// global epoch, and free every limbo entry whose tag is below the minimum
// pinned epoch. No reader can still hold a snapshot retired before its
// pin, so reclamation is safe without reference counts on the hot path.
//
// The ingest side is deliberately boring: feedback updates are appended to
// a mutex-guarded pending buffer and drained in batches by whoever owns the
// aggregation loop (tools/repserved folds them through the feedback ledger
// and republishes). The loop can sleep until a batch is queued:
// wait_feedback blocks until enough updates are pending, and an enqueue
// notifies only when it reaches a waiter's threshold. Serving is
// observational with respect to the engine — folding scores into the store
// never feeds back into aggregation state.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace gt::serve {

struct StoreConfig {
  /// Fixed number of registered reader slots (epoch-reclamation pins).
  /// Acquiring more concurrent readers than this aborts loudly.
  std::size_t max_readers = 64;
};

/// One feedback update queued for the aggregation loop.
struct FeedbackUpdate {
  std::uint64_t rater = 0;
  std::uint64_t ratee = 0;
  double value = 0.0;
};

/// Result of a lookup. `epoch` is the publish version of the snapshot the
/// score was read from; epoch == 0 means the id was not present (published
/// epochs start at 1), in which case score is 0.
struct LookupResult {
  std::uint64_t epoch = 0;
  double score = 0.0;
  bool found() const noexcept { return epoch != 0; }
};

class ReputationStore {
 public:
  explicit ReputationStore(StoreConfig config = {});
  ~ReputationStore();

  ReputationStore(const ReputationStore&) = delete;
  ReputationStore& operator=(const ReputationStore&) = delete;

  std::size_t max_readers() const noexcept { return slots_.size(); }

  /// Version of the most recent publish (0 before the first).
  std::uint64_t published_epoch() const noexcept {
    return published_epoch_.load(std::memory_order_acquire);
  }

  // --- read path -----------------------------------------------------------

  /// RAII epoch pin. One guard may serve any number of lookups; re-acquire
  /// periodically (e.g. per request batch) so reclamation can advance.
  /// Guards are cheap but not free (two seq_cst operations) — amortize.
  class ReadGuard {
   public:
    ReadGuard(ReadGuard&& o) noexcept
        : store_(o.store_), slot_(o.slot_) { o.store_ = nullptr; }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;
    ReadGuard& operator=(ReadGuard&&) = delete;
    ~ReadGuard() { release(); }

    /// Re-pins at the current epoch (drop + re-acquire in place).
    void refresh();
    void release();

   private:
    friend class ReputationStore;
    ReadGuard(ReputationStore* store, std::size_t slot)
        : store_(store), slot_(slot) {}
    ReputationStore* store_;
    std::size_t slot_;
  };

  /// Acquires a reader slot and pins the current epoch. Aborts loudly when
  /// all max_readers slots are taken (a sizing bug, not a runtime race).
  ReadGuard reader();

  /// Mutex-free lookup under a pinned guard. Ids at or past the published
  /// vector's size read as not found.
  LookupResult lookup(const ReadGuard& guard, std::uint64_t node) const;

  // --- write path (serialized internally; may lock) ------------------------

  /// Publishes dense scores for node ids 0..scores.size()-1 as one new
  /// snapshot, replacing the previous one whole; returns its epoch.
  std::uint64_t publish(const std::vector<double>& scores);

  // --- ingest queue ---------------------------------------------------------

  /// Appends one feedback update to the pending batch (mutex-guarded; the
  /// ingest path is a write path and may lock). Wakes the wait_feedback
  /// callers when it brings the batch to the lowest of their thresholds.
  void enqueue_feedback(const FeedbackUpdate& f);

  /// Blocks until at least `at_least` updates are pending or `timeout`
  /// passes, whichever comes first; returns the number pending. Never
  /// drains, and returns at once when the threshold is already met.
  std::size_t wait_feedback(std::size_t at_least, std::chrono::nanoseconds timeout);

  /// Swap-drains every pending update into `out` (cleared first); returns
  /// the number drained.
  std::size_t drain_feedback(std::vector<FeedbackUpdate>& out);

  std::uint64_t feedback_enqueued() const noexcept {
    return feedback_enqueued_.load(std::memory_order_relaxed);
  }
  std::size_t feedback_pending() const;

  // --- reclamation accounting (tests + STATS) -------------------------------

  /// Snapshots currently reachable (published) — 1 once anything has been
  /// published, else 0.
  std::size_t snapshots_live() const;
  /// Retired snapshots already reclaimed.
  std::uint64_t snapshots_reclaimed() const noexcept {
    return snapshots_reclaimed_.load(std::memory_order_relaxed);
  }
  /// Retired snapshots still waiting on a pinned reader.
  std::size_t limbo_size() const;

 private:
  struct Snapshot;

  std::uint64_t pin_slot(std::size_t slot) noexcept;
  void reclaim_locked();

  std::atomic<Snapshot*> current_{nullptr};

  // Reader slots: 0 = quiescent, otherwise the pinned epoch. Cacheline-
  // padded so independent readers never false-share.
  struct alignas(64) ReaderSlot {
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<bool> taken{false};
  };
  std::vector<ReaderSlot> slots_;

  std::atomic<std::uint64_t> global_epoch_{1};
  std::atomic<std::uint64_t> published_epoch_{0};

  mutable std::mutex write_mutex_;
  struct LimboEntry {
    Snapshot* snap;
    std::uint64_t tag;  ///< global epoch at retire time
  };
  std::vector<LimboEntry> limbo_;
  std::atomic<std::uint64_t> snapshots_reclaimed_{0};

  mutable std::mutex ingest_mutex_;
  std::vector<FeedbackUpdate> pending_;
  std::condition_variable feedback_cv_;
  std::size_t wake_at_ = 0;  ///< lowest waiter threshold; 0 = none armed
  std::size_t waiters_ = 0;  ///< threads inside wait_feedback
  std::atomic<std::uint64_t> feedback_enqueued_{0};
};

}  // namespace gt::serve

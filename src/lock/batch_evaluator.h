// Batched lock evaluator: binds a LockEvaluator to a worker pool so many
// key candidates are measured per transient.
//
// It holds no logic of its own: every call forwards to the evaluator's
// many-key oracles, so readings, trial counters and fault-injector state
// are exactly those of one-key calls made in key order, for any thread
// count.
#pragma once

#include <span>
#include <vector>

#include "lock/evaluator.h"
#include "par/thread_pool.h"

namespace analock::lock {

class BatchEvaluator {
 public:
  /// Wraps `evaluator` (not owned; must outlive the batch evaluator).
  /// `pool` selects the worker pool (not owned); nullptr uses
  /// par::ThreadPool::shared().
  explicit BatchEvaluator(LockEvaluator& evaluator,
                          par::ThreadPool* pool = nullptr)
      : ev_(&evaluator), pool_(pool) {}

  /// LockEvaluator::snr_receiver_db per key: result i is for keys[i].
  [[nodiscard]] std::vector<double> snr_receiver_db(
      std::span<const Key64> keys) {
    return ev_->snr_receiver_db(keys, ev_->options().input_dbm, pool());
  }

  /// LockEvaluator::snr_modulator_db per key.
  [[nodiscard]] std::vector<double> snr_modulator_db(
      std::span<const Key64> keys) {
    return ev_->snr_modulator_db(keys, ev_->options().input_dbm, pool());
  }

  /// LockEvaluator::sfdr_db per key.
  [[nodiscard]] std::vector<double> sfdr_db(std::span<const Key64> keys) {
    return ev_->sfdr_db(keys, ev_->options().two_tone_dbm, pool());
  }

  /// LockEvaluator::evaluate per key.
  [[nodiscard]] std::vector<PerformanceReport> evaluate_batch(
      std::span<const Key64> keys) {
    return ev_->evaluate(keys, pool());
  }

 private:
  [[nodiscard]] par::ThreadPool& pool() const {
    return pool_ != nullptr ? *pool_ : par::ThreadPool::shared();
  }

  LockEvaluator* ev_;
  par::ThreadPool* pool_;
};

}  // namespace analock::lock

// Concurrency stress for the batched evaluation engine. Registered as
// ctest `tsan_batch_eval` with a fixed name so the tsan preset
// (-DANALOCK_SANITIZE=thread) can target it for race detection: the
// thread pool fan-out, the shared FFT twiddle cache, and the batch
// stepper's shared-read/private-write layout all get hammered here.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "dsp/fft.h"
#include "lock/batch_evaluator.h"
#include "lock/evaluator.h"
#include "lock/key_layout.h"
#include "par/thread_pool.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace {

using namespace analock;
using lock::Key64;

TEST(BatchStress, PoolChurn) {
  par::ThreadPool pool(4);
  std::vector<double> sums(64, 0.0);
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(sums.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) sums[i] += 1.0;
    });
  }
  for (const double s : sums) EXPECT_EQ(s, 200.0);
}

TEST(BatchStress, ConcurrentTwiddleCache) {
  // Many threads hitting dsp::twiddles_for for fresh sizes at once —
  // the regression surface of the old unsynchronized static map.
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([t] {
      for (std::size_t n = 2; n <= 2048; n *= 2) {
        std::vector<dsp::cplx> x(n, dsp::cplx{1.0, static_cast<double>(t)});
        dsp::fft_inplace(x);
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

TEST(BatchStress, BatchedEvaluationUnderThreads) {
  // The first 4-thread call draws the evaluator's noise tape on the
  // caller thread before the workers read it; the second replays it.
  // Toggling buffer_in_path in between adds the buffer stream to the
  // tape between calls. Every reading must equal a 1-thread evaluator's.
  sim::Rng chip_rng(9001);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  lock::EvaluatorOptions opt;
  opt.fft_size = 512;
  opt.sfdr_fft_size = 1024;
  opt.baseband_points = 128;
  opt.settle = 128;
  lock::LockEvaluator ev(rf::standard_max_3ghz(), pv, chip_rng.fork("chip"),
                         opt);
  lock::LockEvaluator ev1(rf::standard_max_3ghz(), pv, chip_rng.fork("chip"),
                          opt);
  par::ThreadPool pool(4);
  par::ThreadPool pool1(1);
  lock::BatchEvaluator batch(ev, &pool);
  lock::BatchEvaluator batch1(ev1, &pool1);

  sim::Rng key_rng(17);
  std::vector<Key64> keys;
  for (int i = 0; i < 12; ++i) {
    keys.push_back(Key64::random(key_rng).with_bit(
        lock::KeyLayout::kBufferInPath, false));
  }
  const auto expect_equal = [&](const auto& got) {
    const auto want = batch1.evaluate_batch(keys);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(want[i].snr_modulator_db, got[i].snr_modulator_db) << i;
      EXPECT_EQ(want[i].snr_receiver_db, got[i].snr_receiver_db) << i;
      EXPECT_EQ(want[i].sfdr_db, got[i].sfdr_db) << i;
    }
  };
  expect_equal(batch.evaluate_batch(keys));
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    keys[i] = keys[i].with_bit(lock::KeyLayout::kBufferInPath, true);
  }
  expect_equal(batch.evaluate_batch(keys));
  expect_equal(batch.evaluate_batch(keys));
}

}  // namespace

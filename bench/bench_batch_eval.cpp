// Batched-evaluation benchmark: N one-key LockEvaluator calls vs one
// N-key lock::BatchEvaluator call on the same key set, single-threaded
// (the shared-noise/FFT win) and with the full thread pool (the fan-out
// win). Before timing anything it verifies that both forms read the same
// values on the exact workload being timed, so the reported speedup is
// for an identical-output computation by construction.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "lock/batch_evaluator.h"
#include "par/thread_pool.h"

namespace {
// Streams this bench's event record to bench_batch_eval.jsonl.
const analock::bench::ObsSession kObsSession("bench_batch_eval");
}  // namespace

namespace {

using namespace analock;

struct Setup {
  sim::ProcessVariation pv;
  sim::Rng chip_rng;
  std::vector<lock::Key64> keys;
};

Setup make_setup(std::size_t lanes) {
  sim::Rng master(bench::kBenchSeed);
  Setup s{sim::ProcessVariation::monte_carlo(master, 0),
          master.fork("chip", 0), {}};
  sim::Rng key_rng(4242);
  s.keys.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    s.keys.push_back(lock::Key64::random(key_rng));
  }
  return s;
}

/// Bit-exactness gate: batched values (1 thread and N threads) must equal
/// the one-key calls', else the speedup below is meaningless.
bool verify_parity(const Setup& s, par::ThreadPool& pool1,
                   par::ThreadPool& pool_max) {
  const rf::Standard& standard = rf::standard_max_3ghz();
  lock::LockEvaluator one(standard, s.pv, s.chip_rng);
  lock::LockEvaluator ev1(standard, s.pv, s.chip_rng);
  lock::LockEvaluator evn(standard, s.pv, s.chip_rng);
  lock::BatchEvaluator batch1(ev1, &pool1);
  lock::BatchEvaluator batchn(evn, &pool_max);
  const auto rx1 = batch1.snr_receiver_db(s.keys);
  const auto rxn = batchn.snr_receiver_db(s.keys);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < s.keys.size(); ++i) {
    const double ref = one.snr_receiver_db(s.keys[i]);
    if (ref != rx1[i] || rx1[i] != rxn[i]) ++mismatches;
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FATAL: batch/one-key mismatch on %zu of %zu keys\n",
                 mismatches, s.keys.size());
    return false;
  }
  std::printf("parity: batch == one-key calls bit-exact on %zu keys "
              "(1 and %zu threads)\n",
              s.keys.size(), pool_max.size());
  return true;
}

}  // namespace

int main() {
  bench::Harness h("bench_batch_eval");
  const std::size_t lanes =
      static_cast<std::size_t>(std::max<std::uint64_t>(
          1, bench::trials_budget(32)));
  const std::size_t threads = par::ThreadPool::default_thread_count();
  const Setup setup = make_setup(lanes);
  par::ThreadPool pool1(1);
  par::ThreadPool pool_max(threads);

  bench::banner("Batched SNR evaluation engine",
                "N one-key LockEvaluator calls vs one N-key "
                "BatchEvaluator call, receiver + modulator SNR oracles");
  std::printf("lanes=%zu threads=%zu\n", lanes, threads);
  if (!verify_parity(setup, pool1, pool_max)) return 1;

  const rf::Standard& standard = rf::standard_max_3ghz();
  lock::LockEvaluator ev_one(standard, setup.pv, setup.chip_rng);
  lock::LockEvaluator ev_b1(standard, setup.pv, setup.chip_rng);
  lock::LockEvaluator ev_bn(standard, setup.pv, setup.chip_rng);
  lock::BatchEvaluator batch1(ev_b1, &pool1);
  lock::BatchEvaluator batchn(ev_bn, &pool_max);

  const double lanes_d = static_cast<double>(lanes);
  const double threads_d = static_cast<double>(threads);
  bench::CaseOptions one_key_opt;
  one_key_opt.ops_per_rep = lanes_d;
  one_key_opt.notes = {{"lanes", lanes_d}, {"threads", 1.0}};
  bench::CaseOptions t1_opt = one_key_opt;
  bench::CaseOptions tmax_opt = one_key_opt;
  tmax_opt.notes = {{"lanes", lanes_d}, {"threads", threads_d}};

  h.add_case(
      "snr_rx_one_key_calls",
      [&] {
        for (const auto& key : setup.keys) {
          bench::do_not_optimize(ev_one.snr_receiver_db(key));
        }
      },
      one_key_opt);
  h.add_case(
      "snr_rx_batch_t1",
      [&] { bench::do_not_optimize(batch1.snr_receiver_db(setup.keys)); },
      t1_opt);
  h.add_case(
      "snr_rx_batch_tmax",
      [&] { bench::do_not_optimize(batchn.snr_receiver_db(setup.keys)); },
      tmax_opt);
  h.add_case(
      "snr_mod_one_key_calls",
      [&] {
        for (const auto& key : setup.keys) {
          bench::do_not_optimize(ev_one.snr_modulator_db(key));
        }
      },
      one_key_opt);
  h.add_case(
      "snr_mod_batch_t1",
      [&] { bench::do_not_optimize(batch1.snr_modulator_db(setup.keys)); },
      t1_opt);
  h.add_case(
      "snr_mod_batch_tmax",
      [&] { bench::do_not_optimize(batchn.snr_modulator_db(setup.keys)); },
      tmax_opt);
  return h.run();
}

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/options.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace ac = atlas::common;

TEST(Table, RejectsArityMismatch) {
  ac::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
  t.add_row({"1", "2"});
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, AlignedOutputContainsAllCells) {
  ac::Table t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"a-much-longer-name", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("a-much-longer-name"), std::string::npos);
  EXPECT_NE(s.find("| name"), std::string::npos);
}

TEST(Table, CsvOutput) {
  ac::Table t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Formatting, FixedAndPercent) {
  EXPECT_EQ(ac::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(ac::fmt(2.0, 0), "2");
  EXPECT_EQ(ac::fmt_pct(0.1981), "19.8%");
  EXPECT_EQ(ac::fmt_pct(1.0, 0), "100%");
}

TEST(BenchOptions, ScalesIterationsWithFloor) {
  ac::BenchOptions opts;
  opts.scale = 0.1;
  EXPECT_EQ(opts.iters(100, 20), 20u);  // floor applies
  opts.scale = 2.0;
  EXPECT_EQ(opts.iters(100, 20), 200u);
}

TEST(BenchOptions, EpisodeSecondsBounded) {
  ac::BenchOptions opts;
  opts.scale = 0.05;
  EXPECT_GE(opts.episode_seconds(60.0), 4.0);
  opts.scale = 10.0;
  EXPECT_LE(opts.episode_seconds(60.0), 60.0);  // never above the base
}

namespace {

/// Sets one environment variable for a scope and restores its old value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      setenv(name_, old_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// Expects bench_options() to throw std::invalid_argument naming `name`.
void expect_rejected(const char* name, const char* value) {
  const ScopedEnv env(name, value);
  try {
    (void)ac::bench_options();
    ADD_FAILURE() << name << "='" << value << "' was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
  }
}

}  // namespace

TEST(BenchOptions, EnvParsing) {
  {
    const ScopedEnv seed("ATLAS_SEED", "");
    const ScopedEnv scale("ATLAS_BENCH_SCALE", "");
    const ac::BenchOptions opts = ac::bench_options();
    EXPECT_EQ(opts.seed, 7u);
    EXPECT_DOUBLE_EQ(opts.scale, 1.0);
  }
  // 2^53 + 1 has no double: the seed must not pass through one.
  const ScopedEnv seed("ATLAS_SEED", "9007199254740993");
  const ScopedEnv scale("ATLAS_BENCH_SCALE", "2.5");
  const ac::BenchOptions opts = ac::bench_options();
  EXPECT_EQ(opts.seed, 9007199254740993ULL);
  EXPECT_DOUBLE_EQ(opts.scale, 2.5);
}

TEST(BenchOptions, SeedTakesTheWholeUint64Range) {
  {
    const ScopedEnv seed("ATLAS_SEED", "0");
    EXPECT_EQ(ac::bench_options().seed, 0u);
  }
  const ScopedEnv seed("ATLAS_SEED", "18446744073709551615");
  EXPECT_EQ(ac::bench_options().seed, 18446744073709551615ULL);
}

TEST(BenchOptions, MalformedSeedThrowsNamingTheVariable) {
  for (const char* value :
       {"abc", "1.9", "-1", "+7", " 7", "7 ", "1e3", "18446744073709551616"}) {
    expect_rejected("ATLAS_SEED", value);
  }
}

TEST(BenchOptions, MalformedScaleThrowsNamingTheVariable) {
  for (const char* value : {"abc", "inf", "nan", "-1", "1e999", "2x"}) {
    expect_rejected("ATLAS_BENCH_SCALE", value);
  }
  // The 0.05 floor still applies to a valid scale.
  const ScopedEnv scale("ATLAS_BENCH_SCALE", "0");
  EXPECT_DOUBLE_EQ(ac::bench_options().scale, 0.05);
}

TEST(BenchOptions, IterationsPastSizeTAreRejected) {
  ac::BenchOptions opts;
  opts.scale = 1e300;  // finite, so the parser lets it through
  EXPECT_THROW((void)opts.iters(100), std::invalid_argument);
  opts.scale = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)opts.iters(100), std::invalid_argument);
  EXPECT_THROW((void)opts.iters(0), std::invalid_argument);  // 0 * inf is NaN
  opts.scale = 1e6;
  EXPECT_EQ(opts.iters(100), 100000000u);
}

TEST(ThreadPool, DefaultThreadCountNeverZero) {
  // The 0-argument fallback must request a real level of parallelism even
  // when hardware_concurrency() is unknown (it returns 0 on some platforms).
  EXPECT_GE(ac::ThreadPool::default_thread_count(), 1u);
  ac::ThreadPool pool;
  EXPECT_EQ(pool.size(), ac::ThreadPool::default_thread_count());
}

TEST(ThreadPool, RunsAllTasks) {
  ac::ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ac::ThreadPool pool(2);
  auto f = pool.submit([] { return 42; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ExceptionsPropagateThroughParallelFor) {
  ac::ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [](std::size_t i) {
                          if (i == 2) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ReportsWorkerThreadMembership) {
  ac::ThreadPool pool(2);
  ac::ThreadPool other(1);
  EXPECT_FALSE(pool.on_worker_thread());  // the test thread is not a worker
  auto mine = pool.submit([&] { return pool.on_worker_thread(); });
  auto foreign = pool.submit([&] { return other.on_worker_thread(); });
  EXPECT_TRUE(mine.get());
  EXPECT_FALSE(foreign.get());  // membership is per pool, not "any pool"
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // A task that issues its own parallel_for occupies the only worker slot;
  // without the caller-runs fallback its subtasks would wait behind it in
  // the queue forever.
  ac::ThreadPool pool(1);
  std::atomic<int> count{0};
  auto outer = pool.submit([&] {
    pool.parallel_for(8, [&](std::size_t) { ++count; });
    return count.load();
  });
  EXPECT_EQ(outer.get(), 8);
}

TEST(ThreadPool, DeeplyNestedParallelForCompletes) {
  // Two levels of nesting (batch inside a batch inside a worker) exercise
  // recursive caller-runs draining.
  ac::ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, NestedExceptionsStillPropagate) {
  ac::ThreadPool pool(1);
  auto outer = pool.submit([&] {
    pool.parallel_for(3, [](std::size_t i) {
      if (i == 1) throw std::runtime_error("nested boom");
    });
  });
  EXPECT_THROW(outer.get(), std::runtime_error);
}

TEST(ThreadPool, NestedTasksAreStolenByIdleWorkers) {
  // Work submitted from inside a worker lands on that worker's own deque.
  // The outer task then blocks both nested tasks on a 2-party rendezvous:
  // via the caller-runs fallback it executes one of them inline, which can
  // only ever complete if ANOTHER worker steals the second task from the
  // submitting worker's deque. A pool without stealing (the old shared
  // queue drained only through caller-runs here) would hang this test, and
  // the recorded thread ids must show two distinct workers.
  ac::ThreadPool pool(2);
  std::mutex m;
  std::condition_variable cv;
  int arrived = 0;
  std::set<std::thread::id> runners;
  auto outer = pool.submit([&] {
    pool.parallel_for(2, [&](std::size_t) {
      std::unique_lock lock(m);
      runners.insert(std::this_thread::get_id());
      ++arrived;
      cv.notify_all();
      cv.wait(lock, [&] { return arrived == 2; });
    });
  });
  outer.get();
  EXPECT_EQ(runners.size(), 2u);
}

TEST(ThreadPool, StealKeepsDeepNestingParallel) {
  // Head-of-line regression guard: a deep nested fan-out from one worker
  // must still spread across the pool instead of serializing behind the
  // nested caller. With 4 workers and 64 sleepy subtasks, at least one
  // other worker must have stolen some of them.
  ac::ThreadPool pool(4);
  std::mutex m;
  std::set<std::thread::id> runners;
  auto outer = pool.submit([&] {
    pool.parallel_for(64, [&](std::size_t) {
      {
        std::scoped_lock lock(m);
        runners.insert(std::this_thread::get_id());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  });
  outer.get();
  EXPECT_GE(runners.size(), 2u);
}

TEST(ThreadPool, ParallelResultsMatchSerial) {
  // The deterministic-seeding contract: parallel evaluation with per-index
  // seeds must produce the same values regardless of scheduling.
  ac::ThreadPool pool(4);
  std::vector<double> parallel_out(64, 0.0);
  pool.parallel_for(64, [&](std::size_t i) {
    parallel_out[i] = static_cast<double>(i) * 1.5;
  });
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_DOUBLE_EQ(parallel_out[i], static_cast<double>(i) * 1.5);
  }
}

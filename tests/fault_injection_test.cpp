// Chaos-harness primitives (src/env/fault_injection.hpp): the FaultPlan
// grammar, the deterministic decision stream, and the one injection point,
// FaultInjectingBackend (query-level faults). The load-bearing property
// throughout is DETERMINISM: a fault draw is a pure function of (plan seed,
// stream key, rule index), so two same-seed runs inject the identical fault
// sequence regardless of thread interleaving. Every test here is single-run
// deterministic — no flake tolerance, no retries. Transport faults are
// rpc_transport_test's subject (black-hole, refusing and closing transports)
// and rpc_codec_test's (its mutation corpus).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "env/fault_injection.hpp"

namespace ae = atlas::env;

namespace {

ae::EnvQuery query_with_seed(std::uint64_t seed) {
  ae::EnvQuery q;
  q.workload.duration_ms = 500.0;
  q.workload.seed = seed;
  return q;
}

/// Inner backend whose result is a pure function of the workload seed, so
/// tests can tell "executed normally" from "perturbed" byte-for-byte.
class SeedEchoBackend final : public ae::EnvBackend {
 public:
  ae::EpisodeResult execute(const ae::EnvQuery& q) const override {
    ae::EpisodeResult result;
    result.latencies_ms = {static_cast<double>(q.workload.seed), 2.0};
    result.frames_completed = static_cast<std::size_t>(q.workload.seed);
    return result;
  }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }
  bool accepts_sim_params() const noexcept override { return true; }

 private:
  std::string name_ = "seed-echo";
};

ae::FaultPlan plan_of(const std::string& spec, std::uint64_t seed) {
  return ae::FaultPlan::parse(spec, seed);
}

}  // namespace

TEST(FaultPlan, ParsesTheFullGrammar) {
  const auto plan = plan_of("error=0.2,delay=0.1:50ms,hang=0.05:2s,error=1", 9);
  ASSERT_EQ(plan.rules.size(), 4u);
  EXPECT_EQ(plan.seed, 9u);

  EXPECT_EQ(plan.rules[0].kind, ae::FaultKind::kError);
  EXPECT_DOUBLE_EQ(plan.rules[0].probability, 0.2);
  EXPECT_DOUBLE_EQ(plan.rules[0].duration_ms, 0.0);

  EXPECT_EQ(plan.rules[1].kind, ae::FaultKind::kDelay);
  EXPECT_DOUBLE_EQ(plan.rules[1].duration_ms, 50.0);

  // "2s" is a unit suffix, not a typo'd 2 ms.
  EXPECT_EQ(plan.rules[2].kind, ae::FaultKind::kHang);
  EXPECT_DOUBLE_EQ(plan.rules[2].duration_ms, 2000.0);

  EXPECT_EQ(plan.rules[3].kind, ae::FaultKind::kError);
  EXPECT_DOUBLE_EQ(plan.rules[3].probability, 1.0);
}

TEST(FaultPlan, ToStringRoundTripsThroughParse) {
  const auto plan = plan_of("error=0.2,delay=0.1:50ms,hang=0.05:2s", 3);
  const auto replayed = ae::FaultPlan::parse(plan.to_string(), plan.seed);
  ASSERT_EQ(replayed.rules.size(), plan.rules.size());
  for (std::size_t i = 0; i < plan.rules.size(); ++i) {
    EXPECT_EQ(replayed.rules[i].kind, plan.rules[i].kind) << "rule " << i;
    EXPECT_DOUBLE_EQ(replayed.rules[i].probability, plan.rules[i].probability) << "rule " << i;
    EXPECT_DOUBLE_EQ(replayed.rules[i].duration_ms, plan.rules[i].duration_ms) << "rule " << i;
  }
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  const char* bad[] = {
      "explode=0.5",      // unknown kind
      "error",            // no '='
      "error=1.5",        // probability out of range
      "error=-0.1",       // negative probability
      "error=zebra",      // garbage probability
      "delay=0.1:oops",   // garbage duration
      "delay=0.1:-5ms",   // negative duration
      "error=0.1@5",      // no decision-count gate
      "drop=1",           // no drop kind
      "corrupt=0.1",      // no corrupt kind
      "hang=1",           // a hang needs a duration
      "delay=0.5",        // ...and so does a delay
      "error=nan",        // NaN probability
      "delay=nan:5ms",    // NaN probability on a timed rule
      "error=0.1:5ms",    // an error takes no duration
      "delay=1:0ms",      // zero duration
      "delay=1:nanms",    // NaN duration
      "delay=1:infms",    // infinite duration
      "delay=1:1e300ms",  // finite, but past any steady-clock deadline
      "hang=1:3601s",     // over one hour
  };
  for (const char* spec : bad) {
    EXPECT_THROW((void)ae::FaultPlan::parse(spec, 1), std::invalid_argument) << spec;
  }
  // An empty spec is a valid (empty) plan, not an error — callers gate on it.
  EXPECT_TRUE(ae::FaultPlan::parse("", 1).empty());
}

TEST(FaultInjector, DecisionsAreAPureFunctionOfSeedAndStreamKey) {
  const auto plan = plan_of("error=0.25,delay=0.25:5ms", 42);
  ae::FaultInjector a(plan);
  ae::FaultInjector b(plan);

  int fired = 0;
  for (std::uint64_t key = 0; key < 2000; ++key) {
    const auto fa = a.decide(key);
    const auto fb = b.decide(key);
    ASSERT_EQ(fa.has_value(), fb.has_value()) << "key " << key;
    if (fa) {
      EXPECT_EQ(fa->kind, fb->kind) << "key " << key;
      EXPECT_DOUBLE_EQ(fa->duration_ms, fb->duration_ms) << "key " << key;
      ++fired;
    }
  }
  // The hash draw is actually uniform-ish: ~44% of keys should trip one of
  // the two 25% rules. Wide bounds — this guards against a broken mixer
  // (everything fires / nothing fires), not statistical perfection.
  EXPECT_GT(fired, 2000 * 0.30);
  EXPECT_LT(fired, 2000 * 0.60);

  // Different seed, same keys: a different (but still deterministic) pattern.
  ae::FaultInjector c(plan_of("error=0.25,delay=0.25:5ms", 43));
  int diverged = 0;
  ae::FaultInjector a2(plan);
  for (std::uint64_t key = 0; key < 2000; ++key) {
    if (a2.decide(key).has_value() != c.decide(key).has_value()) ++diverged;
  }
  EXPECT_GT(diverged, 0);
}

TEST(FaultInjectingBackend, ErrorFaultThrowsTypedErrorAndCounts) {
  const auto injector = std::make_shared<ae::FaultInjector>(plan_of("error=1", 5));
  ae::FaultInjectingBackend faulty(std::make_shared<SeedEchoBackend>(), injector);

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    EXPECT_THROW((void)faulty.execute(query_with_seed(seed)), ae::FaultInjectedError);
  }
  EXPECT_EQ(injector->counters().errors, 4u);
  EXPECT_EQ(injector->counters().total(), 4u);
}

TEST(FaultInjectingBackend, ForwardsIdentityAndExecutesCleanWithEmptyPlan) {
  const auto injector = std::make_shared<ae::FaultInjector>(ae::FaultPlan{});
  const auto inner = std::make_shared<SeedEchoBackend>();
  ae::FaultInjectingBackend faulty(inner, injector);

  // The decorator is invisible to the farm's equivalence digest: identity
  // metadata forwards verbatim.
  EXPECT_EQ(faulty.name(), inner->name());
  EXPECT_EQ(faulty.kind(), inner->kind());
  EXPECT_TRUE(faulty.accepts_sim_params());

  const auto result = faulty.execute(query_with_seed(17));
  EXPECT_EQ(result.latencies_ms, inner->execute(query_with_seed(17)).latencies_ms);
  EXPECT_EQ(injector->counters().total(), 0u);
}

TEST(FaultInjectingBackend, DelayIsABrownOutNotAFailure) {
  const auto injector = std::make_shared<ae::FaultInjector>(plan_of("delay=1:1ms", 5));
  ae::FaultInjectingBackend faulty(std::make_shared<SeedEchoBackend>(), injector);

  const auto result = faulty.execute(query_with_seed(23));
  EXPECT_EQ(result.frames_completed, 23u);  // slower, not wrong
  EXPECT_EQ(injector->counters().delays, 1u);
}

TEST(FaultInjectingBackend, HangFailsOnceItsDurationElapses) {
  const auto injector = std::make_shared<ae::FaultInjector>(plan_of("hang=1:30ms", 5));
  ae::FaultInjectingBackend faulty(std::make_shared<SeedEchoBackend>(), injector);

  // A stuck worker, not a slow one: the query fails, but only after the hang
  // has held it for its whole duration.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)faulty.execute(query_with_seed(41)), ae::FaultInjectedError);
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(30));
  EXPECT_EQ(injector->counters().hangs, 1u);
}

TEST(FaultInjectingBackend, HangIsUnblockedByCancellation) {
  const auto injector = std::make_shared<ae::FaultInjector>(plan_of("hang=1:3600s", 5));
  ae::FaultInjectingBackend faulty(std::make_shared<SeedEchoBackend>(), injector);

  // A cancelled hang is a hedge loser, not a fault: EpisodeCancelled, so the
  // farm's health machinery upstream leaves the replica alone.
  ae::CancelToken cancel{false};
  std::atomic<bool> cancelled{false};
  std::thread hung([&] {
    try {
      (void)faulty.execute_cancellable(query_with_seed(43), cancel);
    } catch (const ae::EpisodeCancelled&) {
      cancelled.store(true, std::memory_order_release);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  cancel.store(true, std::memory_order_release);
  hung.join();
  EXPECT_TRUE(cancelled.load(std::memory_order_acquire));
}

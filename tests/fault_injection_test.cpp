// Chaos-harness primitives (src/env/fault_injection.hpp): the FaultPlan
// grammar, the deterministic decision stream, and the two injection points —
// FaultInjectingBackend (query-level faults) and FlakyTransport (frame-level
// faults). The load-bearing property throughout is DETERMINISM: a fault
// draw is a pure function of (plan seed, stream key, rule index), so two
// same-seed runs inject the identical fault sequence regardless of thread
// interleaving. Every test here is single-run deterministic — no flake
// tolerance, no retries.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "env/fault_injection.hpp"
#include "rpc/transport.hpp"

namespace ae = atlas::env;
namespace ar = atlas::rpc;

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

/// Counts frames instead of moving them — lets drop tests assert the frame
/// never reached the wire.
class CountingTransport final : public ar::Transport {
 public:
  void send(std::span<const std::uint8_t> frame) override {
    ++sends;
    last_frame.assign(frame.begin(), frame.end());
  }
  bool recv(std::vector<std::uint8_t>&) override { return false; }
  void close() override { ++closes; }

  int sends = 0;
  int closes = 0;
  std::vector<std::uint8_t> last_frame;
};

ae::FaultPlan plan_of(const std::string& spec, std::uint64_t seed) {
  return ae::FaultPlan::parse(spec, seed);
}

}  // namespace

TEST(FaultPlan, ParsesTheFullGrammar) {
  const auto plan = plan_of("error=0.2,delay=0.1:50ms,hang=0.05:2s,corrupt=0.1@100,drop=1", 9);
  ASSERT_EQ(plan.rules.size(), 5u);
  EXPECT_EQ(plan.seed, 9u);

  EXPECT_EQ(plan.rules[0].kind, ae::FaultKind::kError);
  EXPECT_DOUBLE_EQ(plan.rules[0].probability, 0.2);
  EXPECT_DOUBLE_EQ(plan.rules[0].duration_ms, 0.0);
  EXPECT_EQ(plan.rules[0].after, 0u);

  EXPECT_EQ(plan.rules[1].kind, ae::FaultKind::kDelay);
  EXPECT_DOUBLE_EQ(plan.rules[1].duration_ms, 50.0);

  // "2s" is a unit suffix, not a typo'd 2 ms.
  EXPECT_EQ(plan.rules[2].kind, ae::FaultKind::kHang);
  EXPECT_DOUBLE_EQ(plan.rules[2].duration_ms, 2000.0);

  EXPECT_EQ(plan.rules[3].kind, ae::FaultKind::kCorrupt);
  EXPECT_EQ(plan.rules[3].after, 100u);

  EXPECT_EQ(plan.rules[4].kind, ae::FaultKind::kDrop);
  EXPECT_DOUBLE_EQ(plan.rules[4].probability, 1.0);
}

TEST(FaultPlan, ToStringRoundTripsThroughParse) {
  const auto plan = plan_of("error=0.2,delay=0.1:50ms,hang=0.05:2s,corrupt=0.1@100", 3);
  const auto replayed = ae::FaultPlan::parse(plan.to_string(), plan.seed);
  ASSERT_EQ(replayed.rules.size(), plan.rules.size());
  for (std::size_t i = 0; i < plan.rules.size(); ++i) {
    EXPECT_EQ(replayed.rules[i].kind, plan.rules[i].kind) << "rule " << i;
    EXPECT_DOUBLE_EQ(replayed.rules[i].probability, plan.rules[i].probability) << "rule " << i;
    EXPECT_DOUBLE_EQ(replayed.rules[i].duration_ms, plan.rules[i].duration_ms) << "rule " << i;
    EXPECT_EQ(replayed.rules[i].after, plan.rules[i].after) << "rule " << i;
  }
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  const char* bad[] = {
      "explode=0.5",     // unknown kind
      "error",           // no '='
      "error=1.5",       // probability out of range
      "error=-0.1",      // negative probability
      "error=zebra",     // garbage probability
      "delay=0.1:oops",  // garbage duration
      "delay=0.1:-5ms",  // negative duration
      "error=0.1@x",     // garbage @after
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

TEST(FaultInjector, AfterGateArmsOnTheSharedDecisionCounter) {
  // Probability 1 but armed only after 5 decisions: the first 5 pass clean.
  ae::FaultInjector injector(plan_of("error=1@5", 7));
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(injector.decide(1000 + static_cast<std::uint64_t>(i))) << "decision " << i;
  }
  for (int i = 0; i < 10; ++i) {
    const auto fault = injector.decide(2000 + static_cast<std::uint64_t>(i));
    ASSERT_TRUE(fault) << "decision " << (5 + i);
    EXPECT_EQ(fault->kind, ae::FaultKind::kError);
  }
  EXPECT_EQ(injector.counters().errors, 10u);
}

TEST(FaultInjector, ResetReplaysTheIdenticalSchedule) {
  ae::FaultInjector injector(plan_of("error=0.4,corrupt=0.3@10", 11));
  std::vector<bool> first_run;
  for (std::uint64_t key = 0; key < 200; ++key) first_run.push_back(injector.decide(key).has_value());
  const auto first_counters = injector.counters();

  injector.reset();
  std::vector<bool> second_run;
  for (std::uint64_t key = 0; key < 200; ++key) second_run.push_back(injector.decide(key).has_value());
  const auto second_counters = injector.counters();

  EXPECT_EQ(first_run, second_run);
  EXPECT_EQ(first_counters.errors, second_counters.errors);
  EXPECT_EQ(first_counters.corruptions, second_counters.corruptions);
  EXPECT_EQ(first_counters.total(), second_counters.total());
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

TEST(FaultInjectingBackend, CorruptionIsDeterministicAndBitIdenticalAcrossRuns) {
  const auto make_result = [](std::uint64_t seed) {
    const auto injector = std::make_shared<ae::FaultInjector>(plan_of("corrupt=1", 5));
    ae::FaultInjectingBackend faulty(std::make_shared<SeedEchoBackend>(), injector);
    return faulty.execute(query_with_seed(seed));
  };

  const auto clean = SeedEchoBackend().execute(query_with_seed(31));
  const auto corrupted = make_result(31);
  // Perturbed — plausible-looking but wrong numbers.
  EXPECT_EQ(corrupted.frames_completed, clean.frames_completed + 1);
  EXPECT_EQ(corrupted.ul_tb_err, clean.ul_tb_err + 1);
  EXPECT_DOUBLE_EQ(corrupted.latencies_ms.front(), clean.latencies_ms.front() + 1000.0);
  // ...and deterministically so: a second same-seed run corrupts identically.
  const auto corrupted_again = make_result(31);
  EXPECT_EQ(corrupted.latencies_ms, corrupted_again.latencies_ms);
  EXPECT_EQ(corrupted.frames_completed, corrupted_again.frames_completed);
}

TEST(FaultInjectingBackend, HangIsUnblockedByReleaseHangs) {
  const auto injector = std::make_shared<ae::FaultInjector>(plan_of("hang=1", 5));
  ae::FaultInjectingBackend faulty(std::make_shared<SeedEchoBackend>(), injector);

  // Duration 0 = "forever": without release_hangs() this thread would park
  // for an hour. The wall-guard contract is that release makes it fail fast.
  std::atomic<bool> threw{false};
  std::thread hung([&] {
    try {
      (void)faulty.execute(query_with_seed(41));
    } catch (const ae::FaultInjectedError&) {
      threw.store(true, std::memory_order_release);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(threw.load(std::memory_order_acquire));  // still parked
  injector->release_hangs();
  hung.join();
  EXPECT_TRUE(threw.load(std::memory_order_acquire));
  EXPECT_EQ(injector->counters().hangs, 1u);
}

TEST(FaultInjectingBackend, HangIsUnblockedByCancellation) {
  const auto injector = std::make_shared<ae::FaultInjector>(plan_of("hang=1", 5));
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

TEST(FlakyTransport, ErrorFaultThrowsTransportError) {
  const auto injector = std::make_shared<ae::FaultInjector>(plan_of("error=1", 5));
  auto counting = std::make_unique<CountingTransport>();
  CountingTransport* inner = counting.get();
  ae::FlakyTransport flaky(std::move(counting), injector);

  const std::vector<std::uint8_t> frame(32, 0xAB);
  EXPECT_THROW(flaky.send(frame), ar::TransportError);
  EXPECT_EQ(inner->sends, 0);
}

TEST(FlakyTransport, DropSwallowsTheFrameSilently) {
  const auto injector = std::make_shared<ae::FaultInjector>(plan_of("drop=1", 5));
  auto counting = std::make_unique<CountingTransport>();
  CountingTransport* inner = counting.get();
  ae::FlakyTransport flaky(std::move(counting), injector);

  const std::vector<std::uint8_t> frame(32, 0xAB);
  EXPECT_NO_THROW(flaky.send(frame));  // caller believes it sent
  EXPECT_EQ(inner->sends, 0);          // the wire never saw it
  EXPECT_EQ(injector->counters().drops, 1u);
}

TEST(FlakyTransport, CorruptFlipsOneBodyByteAndForwards) {
  const auto injector = std::make_shared<ae::FaultInjector>(plan_of("corrupt=1", 5));
  auto counting = std::make_unique<CountingTransport>();
  CountingTransport* inner = counting.get();
  ae::FlakyTransport flaky(std::move(counting), injector);

  const std::vector<std::uint8_t> frame(32, 0xAB);
  flaky.send(frame);
  ASSERT_EQ(inner->sends, 1);
  ASSERT_EQ(inner->last_frame.size(), frame.size());
  // Exactly one byte differs (byte 16: past the header, so the peer sees a
  // well-framed message with a poisoned body).
  int flipped = 0;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    if (inner->last_frame[i] != frame[i]) {
      ++flipped;
      EXPECT_EQ(i, 16u);
    }
  }
  EXPECT_EQ(flipped, 1);
}

TEST(FlakyTransport, EmptyPlanForwardsEverythingUntouched) {
  const auto injector = std::make_shared<ae::FaultInjector>(ae::FaultPlan{});
  auto counting = std::make_unique<CountingTransport>();
  CountingTransport* inner = counting.get();
  ae::FlakyTransport flaky(std::move(counting), injector);

  const std::vector<std::uint8_t> frame = {1, 2, 3, 4};
  flaky.send(frame);
  ASSERT_EQ(inner->sends, 1);
  EXPECT_EQ(inner->last_frame, frame);
  flaky.close();
  EXPECT_EQ(inner->closes, 1);
  EXPECT_EQ(injector->counters().total(), 0u);
}

#include "env/fault_injection.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

namespace atlas::env {
namespace {

/// splitmix64 finalizer: the standard 64-bit avalanche. Good enough to turn
/// (seed, stream key, rule index) into an independent uniform draw, and —
/// unlike an RNG object — stateless, so the draw cannot depend on how many
/// other threads rolled before this one.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double uniform01(std::uint64_t seed, std::uint64_t stream_key, std::uint64_t rule_index) {
  const std::uint64_t h =
      mix64(mix64(seed ^ 0x41544c41u) ^ (mix64(stream_key) + rule_index));
  // Top 53 bits -> [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Longest delay or hang a plan may hold. Every injected fault ends on its
/// own, so teardown waits at most this long for a worker parked in one.
constexpr double kMaxDurationMs = 3600.0 * 1000.0;

[[noreturn]] void parse_fail(std::string_view spec, const std::string& why) {
  throw std::invalid_argument("bad fault plan '" + std::string(spec) + "': " + why);
}

/// Sleeps `duration_ms` unless `cancel` fires first; returns false when
/// cancelled. The token is polled in 2-ms slices, fine enough that a hedge
/// loser parked in an injected delay releases its slot promptly.
bool sleep_unless_cancelled(double duration_ms, const CancelToken* cancel) {
  using clock = std::chrono::steady_clock;
  const auto deadline = clock::now() + std::chrono::duration_cast<clock::duration>(
                                           std::chrono::duration<double, std::milli>(duration_ms));
  constexpr clock::duration kSlice = std::chrono::milliseconds(2);
  for (;;) {
    if (cancel != nullptr && cancel->load(std::memory_order_acquire)) return false;
    const auto now = clock::now();
    if (now >= deadline) return true;
    std::this_thread::sleep_for(std::min(kSlice, deadline - now));
  }
}

}  // namespace

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kDelay: return "delay";
    case FaultKind::kError: return "error";
    case FaultKind::kHang: return "hang";
  }
  return "unknown";
}

FaultPlan FaultPlan::parse(std::string_view spec, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    std::string_view item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;

    FaultRule rule;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) parse_fail(spec, "rule needs kind=prob");
    const std::string_view kind = item.substr(0, eq);
    if (kind == "delay") rule.kind = FaultKind::kDelay;
    else if (kind == "error") rule.kind = FaultKind::kError;
    else if (kind == "hang") rule.kind = FaultKind::kHang;
    else parse_fail(spec, "unknown fault kind '" + std::string(kind) + "'");

    std::string_view rest = item.substr(eq + 1);
    // Optional :duration, then the probability.
    const std::size_t colon = rest.find(':');
    if (colon != std::string_view::npos) {
      if (rule.kind == FaultKind::kError) parse_fail(spec, "error takes no duration");
      std::string_view dur = rest.substr(colon + 1);
      double unit = 1.0;
      if (dur.ends_with("ms")) {
        dur.remove_suffix(2);
      } else if (dur.ends_with('s')) {
        dur.remove_suffix(1);
        unit = 1000.0;
      }
      const auto [end, ec] =
          std::from_chars(dur.data(), dur.data() + dur.size(), rule.duration_ms);
      if (ec != std::errc{} || end != dur.data() + dur.size())
        parse_fail(spec, "bad duration '" + std::string(rest.substr(colon + 1)) + "'");
      rule.duration_ms *= unit;
      // Also rejects NaN and infinity, which no steady-clock deadline holds.
      if (!(rule.duration_ms > 0.0 && rule.duration_ms <= kMaxDurationMs))
        parse_fail(spec, "duration '" + std::string(rest.substr(colon + 1)) +
                             "' outside (0, 1 h]");
      rest = rest.substr(0, colon);
    } else if (rule.kind != FaultKind::kError) {
      parse_fail(spec, std::string(kind) + " needs a duration");
    }
    const auto [end, ec] =
        std::from_chars(rest.data(), rest.data() + rest.size(), rule.probability);
    if (ec != std::errc{} || end != rest.data() + rest.size())
      parse_fail(spec, "bad probability '" + std::string(rest) + "'");
    if (!(rule.probability >= 0.0 && rule.probability <= 1.0))
      parse_fail(spec, "probability outside [0,1]");
    plan.rules.push_back(rule);
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  char buf[64];
  for (const FaultRule& rule : rules) {
    if (!out.empty()) out += ',';
    out += atlas::env::to_string(rule.kind);
    std::snprintf(buf, sizeof buf, "=%g", rule.probability);
    out += buf;
    if (rule.duration_ms > 0.0) {
      std::snprintf(buf, sizeof buf, ":%gms", rule.duration_ms);
      out += buf;
    }
  }
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

std::optional<FaultRule> FaultInjector::decide(std::uint64_t stream_key) {
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (uniform01(plan_.seed, stream_key, i) < rule.probability) {
      fired_[static_cast<std::size_t>(rule.kind)].fetch_add(1, std::memory_order_relaxed);
      return rule;
    }
  }
  return std::nullopt;
}

FaultCounters FaultInjector::counters() const {
  const auto fired = [this](FaultKind kind) {
    return fired_[static_cast<std::size_t>(kind)].load(std::memory_order_relaxed);
  };
  return FaultCounters{.delays = fired(FaultKind::kDelay),
                       .errors = fired(FaultKind::kError),
                       .hangs = fired(FaultKind::kHang)};
}

FaultInjectingBackend::FaultInjectingBackend(std::shared_ptr<const EnvBackend> inner,
                                             std::shared_ptr<FaultInjector> injector)
    : inner_(std::move(inner)), injector_(std::move(injector)) {}

EpisodeResult FaultInjectingBackend::execute(const EnvQuery& query) const {
  return execute_impl(query, nullptr);
}

EpisodeResult FaultInjectingBackend::execute_cancellable(const EnvQuery& query,
                                                         const CancelToken& cancel) const {
  return execute_impl(query, &cancel);
}

EpisodeResult FaultInjectingBackend::execute_impl(const EnvQuery& query,
                                                  const CancelToken* cancel) const {
  const auto fault = injector_->decide(query.workload.seed);
  if (!fault) return inner_->execute(query);
  switch (fault->kind) {
    case FaultKind::kError:
      throw FaultInjectedError("injected error: worker failure");
    case FaultKind::kDelay:
      if (!sleep_unless_cancelled(fault->duration_ms, cancel)) throw EpisodeCancelled();
      // Brown-out: slower, not wrong — the episode still runs.
      return inner_->execute(query);
    case FaultKind::kHang:
      if (!sleep_unless_cancelled(fault->duration_ms, cancel)) throw EpisodeCancelled();
      throw FaultInjectedError("injected hang: worker stuck");
  }
  return inner_->execute(query);  // unreachable; keeps -Wreturn-type quiet
}

}  // namespace atlas::env

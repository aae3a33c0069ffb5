#include "probe.hpp"

#include <time.h>

namespace pipebench {

std::uint64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void Recorder::record(std::uint64_t wall, std::uint64_t driver_cpu, bool on_driver) noexcept {
  episode_ns_.record(wall);
  episodes_.fetch_add(1, std::memory_order_relaxed);
  busy_ns_.fetch_add(wall, std::memory_order_relaxed);
  if (on_driver) {
    driver_cpu_ns_.fetch_add(driver_cpu, std::memory_order_relaxed);
  } else {
    pool_busy_ns_.fetch_add(wall, std::memory_order_relaxed);
  }
}

TimingBackend::TimingBackend(std::shared_ptr<const env::EnvBackend> inner, Recorder& recorder)
    : inner_(std::move(inner)), recorder_(recorder) {}

template <typename Fn>
env::EpisodeResult TimingBackend::timed(Fn&& fn) const {
  const bool on_driver = recorder_.on_driver();
  const std::uint64_t cpu0 = on_driver ? thread_cpu_ns() : 0;
  const std::uint64_t t0 = wall_ns();
  env::EpisodeResult result = fn();
  const std::uint64_t wall = wall_ns() - t0;
  recorder_.record(wall, on_driver ? thread_cpu_ns() - cpu0 : 0, on_driver);
  return result;
}

env::EpisodeResult TimingBackend::execute(const env::EnvQuery& query) const {
  return timed([&] { return inner_->execute(query); });
}

env::EpisodeResult TimingBackend::execute_cancellable(const env::EnvQuery& query,
                                                      const env::CancelToken& cancel) const {
  return timed([&] { return inner_->execute_cancellable(query, cancel); });
}

env::BackendId TimingClient::register_backend(std::shared_ptr<const env::EnvBackend> backend) {
  return inner_.register_backend(std::make_shared<TimingBackend>(std::move(backend), recorder_));
}

}  // namespace pipebench

#include "rpc/remote_backend.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <future>
#include <thread>
#include <unordered_map>
#include <utility>

#include "rpc/codec.hpp"

namespace atlas::rpc {

/// One connection shared by every concurrent execute(): senders tag requests
/// with a fresh id and park on a promise; the reader thread routes each
/// response frame to its promise. When the stream dies, every parked sender
/// is failed over to the retry loop.
class RemoteBackend::MuxConnection {
 public:
  explicit MuxConnection(std::unique_ptr<Transport> transport)
      : transport_(std::move(transport)) {
    reader_ = std::thread([this] { read_loop(); });
  }

  ~MuxConnection() {
    transport_->close();
    if (reader_.joinable()) reader_.join();
  }

  bool dead() const noexcept { return dead_.load(std::memory_order_acquire); }

  /// Register the pending slot, then put the frame on the wire.
  std::future<std::vector<std::uint8_t>> send_request(std::uint64_t request_id,
                                                      const std::vector<std::uint8_t>& frame) {
    std::future<std::vector<std::uint8_t>> future;
    {
      std::scoped_lock lock(mutex_);
      if (dead_.load(std::memory_order_acquire)) {
        throw TransportError("rpc client: connection is down");
      }
      auto [it, inserted] = pending_.try_emplace(request_id);
      future = it->second.get_future();
    }
    try {
      transport_->send(frame);
    } catch (...) {
      forget(request_id);
      throw;
    }
    return future;
  }

  /// Abandon a timed-out request; a late response frame is dropped.
  void forget(std::uint64_t request_id) {
    std::scoped_lock lock(mutex_);
    pending_.erase(request_id);
  }

  /// Fire-and-forget frame (kCancel): no pending slot, no response expected.
  void send_oneway(const std::vector<std::uint8_t>& frame) { transport_->send(frame); }

 private:
  void read_loop() {
    std::vector<std::uint8_t> frame;
    for (;;) {
      bool got = false;
      try {
        got = transport_->recv(frame);
      } catch (const TransportError&) {
        got = false;
      }
      if (!got) break;
      std::uint64_t request_id = 0;
      try {
        WireReader reader(frame);
        request_id = decode_header(reader).request_id;
      } catch (const CodecError&) {
        break;  // garbage on the stream: poison the connection
      }
      std::promise<std::vector<std::uint8_t>> promise;
      bool found = false;
      {
        std::scoped_lock lock(mutex_);
        auto it = pending_.find(request_id);
        if (it != pending_.end()) {
          promise = std::move(it->second);
          pending_.erase(it);
          found = true;
        }
      }
      if (found) promise.set_value(std::move(frame));
      // else: response to an abandoned (timed-out) request — dropped.
      frame.clear();
    }
    // EOF or fault: fail everyone still parked so they can retry/reconnect.
    dead_.store(true, std::memory_order_release);
    std::unordered_map<std::uint64_t, std::promise<std::vector<std::uint8_t>>> orphans;
    {
      std::scoped_lock lock(mutex_);
      orphans.swap(pending_);
    }
    for (auto& [id, promise] : orphans) {
      promise.set_exception(
          std::make_exception_ptr(TransportError("rpc client: connection lost")));
    }
  }

  std::unique_ptr<Transport> transport_;
  std::thread reader_;
  std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::promise<std::vector<std::uint8_t>>> pending_;
  std::atomic<bool> dead_{false};
};

RemoteBackend::RemoteBackend(RemoteBackendOptions options) : options_(std::move(options)) {
  if (!options_.transport_factory) {
    options_.transport_factory = [host = options_.host, port = options_.port] {
      return TcpTransport::connect(host, port);
    };
  }
}

RemoteBackend::~RemoteBackend() = default;

std::chrono::nanoseconds RemoteBackend::backoff_delay(std::uint64_t failures) const {
  // Exponential: base * 2^(failures-1), capped.
  double delay_ms = options_.backoff_base_ms;
  for (std::uint64_t i = 1; i < failures && delay_ms < options_.backoff_cap_ms; ++i) {
    delay_ms *= 2.0;
  }
  delay_ms = std::min(delay_ms, options_.backoff_cap_ms);
  // Deterministic jitter in [0.5, 1.0): splitmix over (name, attempt), so
  // shards watching the same dead worker desynchronize without a global RNG
  // (and tests stay reproducible).
  std::uint64_t x = std::hash<std::string>{}(options_.name) ^ (failures * 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  const double jitter = 0.5 + 0.5 * (static_cast<double>(x >> 11) * 0x1.0p-53);
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(delay_ms * jitter));
}

std::shared_ptr<RemoteBackend::MuxConnection> RemoteBackend::connection() const {
  std::unique_lock lock(conn_mutex_);
  for (;;) {
    if (conn_ != nullptr && !conn_->dead()) return conn_;
    if (connect_failures_ > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now < next_connect_attempt_) {
        // Hold off this thread WITHOUT holding the connection lock; whoever
        // wakes first (re)connects, everyone else finds the fresh conn_.
        const auto wait = next_connect_attempt_ - now;
        lock.unlock();
        std::this_thread::sleep_for(wait);
        lock.lock();
        continue;
      }
    }
    try {
      conn_ = std::make_shared<MuxConnection>(options_.transport_factory());
    } catch (...) {
      ++connect_failures_;
      next_connect_attempt_ = std::chrono::steady_clock::now() + backoff_delay(connect_failures_);
      throw;
    }
    connect_failures_ = 0;
    if (ever_connected_) {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ever_connected_ = true;
    }
    return conn_;
  }
}

void RemoteBackend::drop_connection(const std::shared_ptr<MuxConnection>& dead) const {
  std::scoped_lock lock(conn_mutex_);
  if (conn_ == dead) conn_ = nullptr;
}

void RemoteBackend::fill_stats(env::BackendStats& stats) const {
  stats.rpc_retries = rpc_retries();
  stats.rpc_failures = rpc_failures();
  stats.rpc_reconnects = rpc_reconnects();
  stats.rpc_rtt_ns = rtt_.snapshot();
}

std::vector<std::uint8_t> RemoteBackend::control_roundtrip(
    const std::function<std::vector<std::uint8_t>(std::uint64_t)>& encode, MsgType expect,
    const char* what) const {
  const auto timeout = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::duration<double, std::milli>(options_.control_timeout_ms));
  std::shared_ptr<MuxConnection> conn;
  try {
    conn = connection();
    const std::uint64_t request_id =
        next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    auto future = conn->send_request(request_id, encode(request_id));
    if (future.wait_for(timeout) != std::future_status::ready) {
      conn->forget(request_id);
      throw RpcError("remote backend '" + options_.name + "': " + what +
                     " timed out after " + std::to_string(options_.control_timeout_ms) + " ms");
    }
    std::vector<std::uint8_t> frame = future.get();
    WireReader reader(frame);
    const FrameHeader header = decode_header(reader);
    if (header.type == MsgType::kError) {
      throw RpcError("remote backend '" + options_.name +
                     "': worker error: " + decode_error_body(reader));
    }
    if (header.type != expect) {
      throw CodecError(std::string("rpc client: unexpected ") + what + " response type");
    }
    return frame;
  } catch (const TransportError& e) {
    if (conn != nullptr) drop_connection(conn);
    throw RpcError("remote backend '" + options_.name + "': " + what + " failed: " + e.what());
  } catch (const CodecError& e) {
    if (conn != nullptr) drop_connection(conn);
    throw RpcError("remote backend '" + options_.name + "': " + what + " failed: " + e.what());
  }
}

env::EnvServiceStats RemoteBackend::fetch_worker_stats() const {
  const auto frame = control_roundtrip(
      [](std::uint64_t id) { return encode_stats_request(id); }, MsgType::kStatsSnapshot,
      "stats request");
  WireReader reader(frame);
  (void)decode_header(reader);
  return decode_stats_snapshot_body(reader);
}

env::WorkerAnnounce RemoteBackend::hello() const {
  const auto frame = control_roundtrip([](std::uint64_t id) { return encode_hello(id); },
                                       MsgType::kAnnounce, "hello");
  WireReader reader(frame);
  (void)decode_header(reader);
  return decode_announce_body(reader);
}

env::WorkerHealth RemoteBackend::heartbeat() const {
  const auto frame = control_roundtrip([](std::uint64_t id) { return encode_heartbeat(id); },
                                       MsgType::kHeartbeatAck, "heartbeat");
  WireReader reader(frame);
  (void)decode_header(reader);
  return decode_heartbeat_ack_body(reader);
}

env::EpisodeResult RemoteBackend::execute(const env::EnvQuery& query) const {
  return execute_impl(query, nullptr);
}

env::EpisodeResult RemoteBackend::execute_cancellable(const env::EnvQuery& query,
                                                      const env::CancelToken& cancel) const {
  return execute_impl(query, &cancel);
}

env::EpisodeResult RemoteBackend::execute_impl(const env::EnvQuery& query,
                                               const env::CancelToken* cancel) const {
  // The worker has its own backend address space.
  env::EnvQuery remote_query = query;
  remote_query.backend = options_.remote_backend;

  const int attempts = 1 + std::max(0, options_.max_retries);
  std::string last_fault = "no attempt made";

  // At-most-once for metered backends: once a query is on the wire the
  // worker may be executing (or have executed) a REAL interaction — retrying
  // it would duplicate live SLA exposure while the client meters one
  // episode. Offline episodes retry freely: deterministic per seed, so at
  // worst a retry recomputes the identical result on the worker.
  const bool metered = options_.kind == env::BackendKind::kOnline;
  const auto metered_abort = [&](const std::string& fault) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    throw RpcError("remote backend '" + options_.name + "': " + fault +
                   " after the query was sent; not retrying a metered episode (it may "
                   "have executed on the worker)");
  };

  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) retries_.fetch_add(1, std::memory_order_relaxed);
    if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
      throw env::EpisodeCancelled();
    }
    std::shared_ptr<MuxConnection> conn;
    bool sent = false;
    try {
      conn = connection();
      const std::uint64_t request_id =
          next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
      const auto rtt_start = std::chrono::steady_clock::now();
      auto future = conn->send_request(request_id, encode_query(request_id, remote_query));
      sent = true;
      // Park on the future, but in short slices when a cancel token is
      // watching: a hedging loser must free its connection slot promptly, not
      // after a full episode timeout.
      const auto wait_deadline =
          rtt_start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                          std::chrono::duration<double, std::milli>(options_.timeout_ms));
      constexpr std::chrono::steady_clock::duration kCancelPollSlice =
          std::chrono::milliseconds(2);
      std::future_status status = std::future_status::timeout;
      for (;;) {
        if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
          conn->forget(request_id);
          try {
            conn->send_oneway(encode_cancel(request_id));
          } catch (const TransportError&) {
            // The read loop will notice the dead stream.
          }
          throw env::EpisodeCancelled();
        }
        const auto now = std::chrono::steady_clock::now();
        if (now >= wait_deadline) break;
        auto slice = wait_deadline - now;
        if (cancel != nullptr && slice > kCancelPollSlice) slice = kCancelPollSlice;
        status = future.wait_for(slice);
        if (status == std::future_status::ready) break;
      }
      if (status != std::future_status::ready) {
        conn->forget(request_id);
        // Best-effort cancel: if the episode is still queued worker-side,
        // skip it (and its now-pointless response) instead of computing for
        // a client that stopped listening.
        try {
          conn->send_oneway(encode_cancel(request_id));
        } catch (const TransportError&) {
          // The read loop will notice the dead stream.
        }
        last_fault = "timed out after " + std::to_string(options_.timeout_ms) + " ms";
        if (metered) metered_abort(last_fault);
        continue;
      }
      std::vector<std::uint8_t> frame = future.get();  // throws TransportError if conn died
      WireReader reader(frame);
      const FrameHeader header = decode_header(reader);
      if (header.type == MsgType::kError) {
        // Deterministic worker-side rejection (bad backend id, invalid
        // sim_params): retrying cannot help.
        failures_.fetch_add(1, std::memory_order_relaxed);
        throw RpcError("remote backend '" + options_.name +
                       "': worker error: " + decode_error_body(reader));
      }
      if (header.type != MsgType::kResult) {
        throw CodecError("rpc client: unexpected response type");
      }
      env::EpisodeResult result = decode_result_body(reader);
      const auto rtt = std::chrono::steady_clock::now() - rtt_start;
      rtt_.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(rtt).count()));
      return result;
    } catch (const TransportError& e) {
      if (conn != nullptr) drop_connection(conn);
      last_fault = e.what();
      // Connect/send failures never reached the worker: always retryable.
      if (sent && metered) metered_abort(last_fault);
      continue;
    } catch (const CodecError& e) {
      // A malformed response is a poisoned stream: drop and retry fresh.
      if (conn != nullptr) drop_connection(conn);
      last_fault = e.what();
      if (sent && metered) metered_abort(last_fault);
      continue;
    }
  }

  failures_.fetch_add(1, std::memory_order_relaxed);
  throw RpcError("remote backend '" + options_.name + "' (" + options_.host + ":" +
                 std::to_string(options_.port) + "): " + std::to_string(attempts) +
                 " attempts failed; last: " + last_fault);
}

}  // namespace atlas::rpc

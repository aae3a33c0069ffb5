#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace atlas::rpc {

/// Transport-layer failure: connect refused, peer reset, truncated frame,
/// implausible length prefix. Distinct from CodecError (malformed payload)
/// so the client can retry transport faults but not semantic ones.
struct TransportError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A bidirectional, frame-oriented byte channel. `send` delivers one whole
/// frame payload atomically with respect to other senders (internally
/// locked); `recv` blocks for the next frame. Implementations: TCP with a
/// u32 length prefix on the wire, and an in-process loopback pair for tests.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Send one frame. Throws TransportError when the channel is down.
  virtual void send(std::span<const std::uint8_t> frame) = 0;

  /// Receive the next frame into `frame`. Returns false on clean shutdown
  /// (peer closed); throws TransportError on a truncated/poisoned stream.
  virtual bool recv(std::vector<std::uint8_t>& frame) = 0;

  /// Shut the channel down; wakes any blocked recv (which then returns
  /// false). Safe to call from any thread, repeatedly.
  virtual void close() = 0;
};

/// Length-prefixed framing over a connected TCP socket:
///
///   u32 payload_bytes (little-endian) | payload
///
/// A prefix beyond kMaxFrameBytes poisons the stream (TransportError) —
/// garbage lengths must not become allocations.
class TcpTransport final : public Transport {
 public:
  /// Adopt an already-connected socket fd (from TcpListener::accept).
  explicit TcpTransport(int fd);
  ~TcpTransport() override;

  /// Connect to host:port (numeric IPv4 or a resolvable name).
  static std::unique_ptr<TcpTransport> connect(const std::string& host, std::uint16_t port);

  void send(std::span<const std::uint8_t> frame) override;
  bool recv(std::vector<std::uint8_t>& frame) override;
  void close() override;

 private:
  int fd_ = -1;
  std::mutex send_mutex_;  ///< One frame on the wire at a time.
};

/// Listening socket bound to 127.0.0.1; port 0 picks an ephemeral port
/// (read it back via port()).
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Block for the next connection; nullptr once close() was called.
  std::unique_ptr<TcpTransport> accept();
  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// In-process channel pair: frames sent on one endpoint arrive at the other.
/// Used by tests (the full RPC path without sockets) and by the
/// loopback bench. Either endpoint's close() EOFs the peer after any queued
/// frames drain.
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>> make_loopback_pair();

}  // namespace atlas::rpc

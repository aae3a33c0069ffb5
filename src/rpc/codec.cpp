#include "rpc/codec.hpp"

#include <bit>
#include <cstring>
#include <limits>

namespace atlas::rpc {

// ---- WireWriter -------------------------------------------------------------

void WireWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void WireWriter::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void WireWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

// ---- WireReader -------------------------------------------------------------

void WireReader::need(std::size_t n) const {
  if (pos_ + n > bytes_.size()) {
    throw CodecError("rpc codec: truncated frame (needed " + std::to_string(n) + " bytes, " +
                     std::to_string(bytes_.size() - pos_) + " left)");
  }
}

std::uint8_t WireReader::u8() {
  need(1);
  return bytes_[pos_++];
}

std::uint16_t WireReader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(bytes_[pos_]) |
                    static_cast<std::uint16_t>(bytes_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

double WireReader::f64() { return std::bit_cast<double>(u64()); }

bool WireReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw CodecError("rpc codec: bad boolean byte");
  return v == 1;
}

std::string WireReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
  pos_ += n;
  return s;
}

void WireReader::expect_done() const {
  if (pos_ != bytes_.size()) {
    throw CodecError("rpc codec: " + std::to_string(bytes_.size() - pos_) +
                     " trailing bytes after message body");
  }
}

// ---- message bodies ---------------------------------------------------------

namespace {

void put_header(WireWriter& w, MsgType type, std::uint64_t request_id) {
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u64(request_id);
}

void put_slice_config(WireWriter& w, const env::SliceConfig& c) {
  w.f64(c.bandwidth_ul);
  w.f64(c.bandwidth_dl);
  w.f64(c.mcs_offset_ul);
  w.f64(c.mcs_offset_dl);
  w.f64(c.backhaul_mbps);
  w.f64(c.cpu_ratio);
}

env::SliceConfig get_slice_config(WireReader& r) {
  env::SliceConfig c;
  c.bandwidth_ul = r.f64();
  c.bandwidth_dl = r.f64();
  c.mcs_offset_ul = r.f64();
  c.mcs_offset_dl = r.f64();
  c.backhaul_mbps = r.f64();
  c.cpu_ratio = r.f64();
  return c;
}

void put_workload(WireWriter& w, const env::Workload& wl) {
  w.i32(wl.traffic);
  w.f64(wl.duration_ms);
  w.f64(wl.distance_m);
  w.boolean(wl.random_walk);
  w.i32(wl.extra_users);
  w.boolean(wl.collect_traces);
  w.u64(wl.seed);
}

env::Workload get_workload(WireReader& r) {
  env::Workload wl;
  wl.traffic = r.i32();
  wl.duration_ms = r.f64();
  wl.distance_m = r.f64();
  wl.random_walk = r.boolean();
  wl.extra_users = r.i32();
  wl.collect_traces = r.boolean();
  wl.seed = r.u64();
  return wl;
}

void put_sim_params(WireWriter& w, const env::SimParams& p) {
  w.f64(p.baseline_loss_db);
  w.f64(p.enb_noise_figure_db);
  w.f64(p.ue_noise_figure_db);
  w.f64(p.backhaul_bw_mbps);
  w.f64(p.backhaul_delay_ms);
  w.f64(p.compute_time_ms);
  w.f64(p.loading_time_ms);
}

env::SimParams get_sim_params(WireReader& r) {
  env::SimParams p;
  p.baseline_loss_db = r.f64();
  p.enb_noise_figure_db = r.f64();
  p.ue_noise_figure_db = r.f64();
  p.backhaul_bw_mbps = r.f64();
  p.backhaul_delay_ms = r.f64();
  p.compute_time_ms = r.f64();
  p.loading_time_ms = r.f64();
  return p;
}

void put_trace(WireWriter& w, const env::FrameTrace& t) {
  w.u64(t.id);
  w.f64(t.created_ms);
  w.f64(t.sent_ms);
  w.f64(t.ul_done_ms);
  w.f64(t.edge_in_ms);
  w.f64(t.compute_start_ms);
  w.f64(t.compute_done_ms);
  w.f64(t.enb_dl_ms);
  w.f64(t.completed_ms);
}

env::FrameTrace get_trace(WireReader& r) {
  env::FrameTrace t;
  t.id = r.u64();
  t.created_ms = r.f64();
  t.sent_ms = r.f64();
  t.ul_done_ms = r.f64();
  t.edge_in_ms = r.f64();
  t.compute_start_ms = r.f64();
  t.compute_done_ms = r.f64();
  t.enb_dl_ms = r.f64();
  t.completed_ms = r.f64();
  return t;
}

// Smallest wire encoding of one list element: an empty string or list
// costs its u32/u64 length field alone.
constexpr std::size_t kHistogramBucketWireBytes = 4 + 8;  // u32 index, u64 count
constexpr std::size_t kTraceWireBytes = 8 + 8 * 8;        // u64 id, 8 f64 stamps
constexpr std::size_t kBackendInfoMinBytes = 4 + 1 + 1 + 8;  // empty name
constexpr std::size_t kHistogramMinBytes = 4 + 8;            // no buckets, sum
constexpr std::size_t kBackendStatsMinBytes =
    4 + 1 + 2 * 8 + 2 * 8 + kHistogramMinBytes + 8;  // empty name

/// Element-count sanity bound: every element takes at least
/// `min_wire_bytes`, so a count the rest of the frame cannot hold is
/// corruption, not data. Checked before the decoder reserves anything, so a
/// flipped length byte never turns into a giant allocation.
std::size_t checked_count(const WireReader& r, std::uint64_t n, std::size_t min_wire_bytes,
                          const char* what) {
  if (n > r.remaining() / min_wire_bytes) {
    throw CodecError(std::string("rpc codec: implausible ") + what + " count " +
                     std::to_string(n) + " (" + std::to_string(r.remaining()) +
                     " bytes left)");
  }
  return static_cast<std::size_t>(n);
}

void put_backend_kind(WireWriter& w, env::BackendKind kind) {
  w.u8(kind == env::BackendKind::kOnline ? 1 : 0);
}

env::BackendKind get_backend_kind(WireReader& r) {
  const std::uint8_t raw = r.u8();
  if (raw > 1) throw CodecError("rpc codec: bad backend kind " + std::to_string(raw));
  return raw == 1 ? env::BackendKind::kOnline : env::BackendKind::kOffline;
}

/// Sparse histogram: u32 occupied-bucket count | (u32 index, u64 count)* |
/// u64 sum. Merges bit-exactly (bucket counts are integers).
void put_histogram(WireWriter& w, const telemetry::HistogramData& h) {
  const auto& counts = h.counts();
  std::uint32_t occupied = 0;
  for (std::uint64_t c : counts) occupied += c != 0 ? 1 : 0;
  w.u32(occupied);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    w.u32(static_cast<std::uint32_t>(i));
    w.u64(counts[i]);
  }
  w.u64(h.sum());
}

telemetry::HistogramData get_histogram(WireReader& r) {
  const std::size_t occupied =
      checked_count(r, r.u32(), kHistogramBucketWireBytes, "histogram bucket");
  if (occupied == 0) {
    if (r.u64() != 0) throw CodecError("rpc codec: empty histogram with nonzero sum");
    return {};
  }
  std::vector<std::uint64_t> counts(telemetry::kBucketCount, 0);
  for (std::size_t i = 0; i < occupied; ++i) {
    const std::uint32_t index = r.u32();
    if (index >= telemetry::kBucketCount) {
      throw CodecError("rpc codec: histogram bucket index out of range");
    }
    counts[index] = r.u64();
  }
  return telemetry::HistogramData::from_counts(std::move(counts), r.u64());
}

void put_backend_info(WireWriter& w, const env::WorkerBackendInfo& info) {
  w.str(info.name);
  put_backend_kind(w, info.kind);
  w.boolean(info.accepts_sim_params);
  w.u64(info.params_digest);
}

env::WorkerBackendInfo get_backend_info(WireReader& r) {
  env::WorkerBackendInfo info;
  info.name = r.str();
  info.kind = get_backend_kind(r);
  info.accepts_sim_params = r.boolean();
  info.params_digest = r.u64();
  return info;
}

void put_backend_stats(WireWriter& w, const env::BackendStats& b) {
  w.str(b.name);
  put_backend_kind(w, b.kind);
  w.u64(b.queries);
  w.u64(b.episodes);
  w.u64(b.rpc_retries);
  w.u64(b.rpc_failures);
  put_histogram(w, b.rpc_rtt_ns);
  w.u64(b.rpc_reconnects);
}

env::BackendStats get_backend_stats(WireReader& r) {
  env::BackendStats b;
  b.name = r.str();
  b.kind = get_backend_kind(r);
  b.queries = r.u64();
  b.episodes = r.u64();
  b.rpc_retries = r.u64();
  b.rpc_failures = r.u64();
  b.rpc_rtt_ns = get_histogram(r);
  b.rpc_reconnects = r.u64();
  return b;
}

}  // namespace

std::vector<std::uint8_t> encode_query(std::uint64_t request_id, const env::EnvQuery& query) {
  WireWriter w;
  put_header(w, MsgType::kQuery, request_id);
  w.u32(query.backend);
  put_slice_config(w, query.config);
  put_workload(w, query.workload);
  w.boolean(query.sim_params.has_value());
  if (query.sim_params) put_sim_params(w, *query.sim_params);
  return w.take();
}

std::vector<std::uint8_t> encode_result(std::uint64_t request_id,
                                        const env::EpisodeResult& result) {
  WireWriter w;
  put_header(w, MsgType::kResult, request_id);
  w.u64(result.latencies_ms.size());
  for (double v : result.latencies_ms) w.f64(v);
  w.u64(result.frames_completed);
  w.i32(result.ul_tb_total);
  w.i32(result.ul_tb_err);
  w.i32(result.dl_tb_total);
  w.i32(result.dl_tb_err);
  w.u64(result.traces.size());
  for (const auto& t : result.traces) put_trace(w, t);
  return w.take();
}

std::vector<std::uint8_t> encode_error(std::uint64_t request_id, const std::string& message) {
  WireWriter w;
  put_header(w, MsgType::kError, request_id);
  w.str(message);
  return w.take();
}

std::vector<std::uint8_t> encode_stats_request(std::uint64_t request_id) {
  WireWriter w;
  put_header(w, MsgType::kStatsRequest, request_id);
  return w.take();
}

std::vector<std::uint8_t> encode_stats_snapshot(std::uint64_t request_id,
                                                const env::EnvServiceStats& stats) {
  WireWriter w;
  put_header(w, MsgType::kStatsSnapshot, request_id);
  w.u32(static_cast<std::uint32_t>(stats.backends.size()));
  for (const auto& backend : stats.backends) put_backend_stats(w, backend);
  w.u64(stats.offline_queries);
  w.u64(stats.online_queries);
  put_histogram(w, stats.query_latency_ns);
  put_histogram(w, stats.queue_depth);
  put_histogram(w, stats.rpc_service_ns);
  return w.take();
}

FrameHeader decode_header(WireReader& reader) {
  const std::uint32_t magic = reader.u32();
  if (magic != kWireMagic) {
    throw CodecError("rpc codec: bad frame magic");
  }
  const std::uint16_t version = reader.u16();
  if (version != kWireVersion) {
    throw CodecError("rpc codec: wire version mismatch (got v" + std::to_string(version) +
                     ", speak only v" + std::to_string(kWireVersion) + ")");
  }
  const std::uint16_t type = reader.u16();
  if (type < static_cast<std::uint16_t>(MsgType::kQuery) ||
      type > static_cast<std::uint16_t>(MsgType::kCancel)) {
    throw CodecError("rpc codec: unknown message type " + std::to_string(type));
  }
  FrameHeader header;
  header.type = static_cast<MsgType>(type);
  header.request_id = reader.u64();
  return header;
}

env::EnvQuery decode_query_body(WireReader& reader) {
  env::EnvQuery query;
  query.backend = reader.u32();
  query.config = get_slice_config(reader);
  query.workload = get_workload(reader);
  if (reader.boolean()) query.sim_params = get_sim_params(reader);
  reader.expect_done();
  return query;
}

env::EpisodeResult decode_result_body(WireReader& reader) {
  env::EpisodeResult result;
  const std::size_t latencies = checked_count(reader, reader.u64(), sizeof(double), "latency");
  result.latencies_ms.reserve(latencies);
  for (std::size_t i = 0; i < latencies; ++i) result.latencies_ms.push_back(reader.f64());
  result.frames_completed = static_cast<std::size_t>(reader.u64());
  result.ul_tb_total = reader.i32();
  result.ul_tb_err = reader.i32();
  result.dl_tb_total = reader.i32();
  result.dl_tb_err = reader.i32();
  const std::size_t traces = checked_count(reader, reader.u64(), kTraceWireBytes, "trace");
  result.traces.reserve(traces);
  for (std::size_t i = 0; i < traces; ++i) result.traces.push_back(get_trace(reader));
  reader.expect_done();
  return result;
}

std::string decode_error_body(WireReader& reader) {
  std::string message = reader.str();
  reader.expect_done();
  return message;
}

std::vector<std::uint8_t> encode_hello(std::uint64_t request_id) {
  WireWriter w;
  put_header(w, MsgType::kHello, request_id);
  return w.take();
}

std::vector<std::uint8_t> encode_announce(std::uint64_t request_id,
                                          const env::WorkerAnnounce& announce) {
  WireWriter w;
  put_header(w, MsgType::kAnnounce, request_id);
  w.u32(static_cast<std::uint32_t>(announce.backends.size()));
  for (const auto& backend : announce.backends) put_backend_info(w, backend);
  return w.take();
}

std::vector<std::uint8_t> encode_heartbeat(std::uint64_t request_id) {
  WireWriter w;
  put_header(w, MsgType::kHeartbeat, request_id);
  return w.take();
}

std::vector<std::uint8_t> encode_heartbeat_ack(std::uint64_t request_id,
                                               const env::WorkerHealth& health) {
  WireWriter w;
  put_header(w, MsgType::kHeartbeatAck, request_id);
  w.u64(health.outstanding);
  w.u64(health.episodes);
  return w.take();
}

std::vector<std::uint8_t> encode_cancel(std::uint64_t request_id) {
  WireWriter w;
  put_header(w, MsgType::kCancel, request_id);
  return w.take();
}

env::WorkerAnnounce decode_announce_body(WireReader& reader) {
  env::WorkerAnnounce announce;
  const std::size_t backends =
      checked_count(reader, reader.u32(), kBackendInfoMinBytes, "announced backend");
  announce.backends.reserve(backends);
  for (std::size_t i = 0; i < backends; ++i) announce.backends.push_back(get_backend_info(reader));
  reader.expect_done();
  return announce;
}

env::WorkerHealth decode_heartbeat_ack_body(WireReader& reader) {
  env::WorkerHealth health;
  health.outstanding = reader.u64();
  health.episodes = reader.u64();
  reader.expect_done();
  return health;
}

env::EnvServiceStats decode_stats_snapshot_body(WireReader& reader) {
  env::EnvServiceStats stats;
  const std::size_t backends =
      checked_count(reader, reader.u32(), kBackendStatsMinBytes, "backend stats");
  stats.backends.reserve(backends);
  for (std::size_t i = 0; i < backends; ++i) stats.backends.push_back(get_backend_stats(reader));
  stats.offline_queries = reader.u64();
  stats.online_queries = reader.u64();
  stats.query_latency_ns = get_histogram(reader);
  stats.queue_depth = get_histogram(reader);
  stats.rpc_service_ns = get_histogram(reader);
  reader.expect_done();
  return stats;
}

}  // namespace atlas::rpc

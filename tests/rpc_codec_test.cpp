#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rpc/codec.hpp"

namespace ar = atlas::rpc;
namespace ae = atlas::env;

namespace {

// Bit-level equality (0.0 vs -0.0 differ; values from different code paths
// must match EXACTLY for a remote episode to be interchangeable with a local
// one).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// NaN-free doubles spanning the interesting range: extremes, denormals,
/// negative zero, and ordinary values.
double random_double(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return std::numeric_limits<double>::max();
    case 3: return std::numeric_limits<double>::lowest();
    case 4: return std::numeric_limits<double>::denorm_min();
    case 5: return std::numeric_limits<double>::infinity();
    default: {
      std::uniform_real_distribution<double> dist(-1e6, 1e6);
      return dist(rng);
    }
  }
}

ae::EnvQuery random_query(std::mt19937_64& rng) {
  ae::EnvQuery q;
  q.backend = static_cast<ae::BackendId>(rng() % 1024);
  q.config.bandwidth_ul = random_double(rng);
  q.config.bandwidth_dl = random_double(rng);
  q.config.mcs_offset_ul = random_double(rng);
  q.config.mcs_offset_dl = random_double(rng);
  q.config.backhaul_mbps = random_double(rng);
  q.config.cpu_ratio = random_double(rng);
  q.workload.traffic = static_cast<int>(rng() % 4) + 1;
  q.workload.duration_ms = random_double(rng);
  q.workload.distance_m = random_double(rng);
  q.workload.random_walk = (rng() % 2) == 0;
  q.workload.extra_users = static_cast<int>(rng() % 7) - 1;
  q.workload.collect_traces = (rng() % 2) == 0;
  q.workload.seed = rng();  // full 64-bit range, incl. > 2^53
  if (rng() % 2 == 0) {
    ae::SimParams p;
    p.baseline_loss_db = random_double(rng);
    p.enb_noise_figure_db = random_double(rng);
    p.ue_noise_figure_db = random_double(rng);
    p.backhaul_bw_mbps = random_double(rng);
    p.backhaul_delay_ms = random_double(rng);
    p.compute_time_ms = random_double(rng);
    p.loading_time_ms = random_double(rng);
    q.sim_params = p;
  }
  return q;
}

ae::EpisodeResult random_result(std::mt19937_64& rng) {
  ae::EpisodeResult r;
  const std::size_t latencies = rng() % 64;  // often empty
  for (std::size_t i = 0; i < latencies; ++i) r.latencies_ms.push_back(random_double(rng));
  r.frames_completed = static_cast<std::size_t>(rng() % 100000);
  r.ul_tb_total = static_cast<int>(rng() % 1000000);
  r.ul_tb_err = static_cast<int>(rng() % 10000);
  r.dl_tb_total = static_cast<int>(rng() % 1000000);
  r.dl_tb_err = static_cast<int>(rng() % 10000);
  const std::size_t traces = rng() % 2 == 0 ? 0 : rng() % 16;  // empty half the time
  for (std::size_t i = 0; i < traces; ++i) {
    ae::FrameTrace t;
    t.id = rng();
    t.created_ms = random_double(rng);
    t.sent_ms = random_double(rng);
    t.ul_done_ms = random_double(rng);
    t.edge_in_ms = random_double(rng);
    t.compute_start_ms = random_double(rng);
    t.compute_done_ms = random_double(rng);
    t.enb_dl_ms = random_double(rng);
    t.completed_ms = random_double(rng);
    r.traces.push_back(t);
  }
  return r;
}

ae::EnvQuery roundtrip_query(const ae::EnvQuery& q, std::uint64_t id) {
  const auto frame = ar::encode_query(id, q);
  ar::WireReader reader(frame);
  const auto header = ar::decode_header(reader);
  EXPECT_EQ(header.type, ar::MsgType::kQuery);
  EXPECT_EQ(header.request_id, id);
  return ar::decode_query_body(reader);
}

ae::EpisodeResult roundtrip_result(const ae::EpisodeResult& r, std::uint64_t id) {
  const auto frame = ar::encode_result(id, r);
  ar::WireReader reader(frame);
  const auto header = ar::decode_header(reader);
  EXPECT_EQ(header.type, ar::MsgType::kResult);
  EXPECT_EQ(header.request_id, id);
  return ar::decode_result_body(reader);
}

// ---- pinned corpus: one fixed, fully populated message per type --------------
//
// Every encoded field is set explicitly (no struct defaults), so the frames
// depend on the codec alone. They pin the wire layout byte for byte and seed
// the mutation test.

ae::SimParams pinned_sim_params() {
  return {.baseline_loss_db = 40.25, .enb_noise_figure_db = 4.5, .ue_noise_figure_db = 8.75,
          .backhaul_bw_mbps = 12.0, .backhaul_delay_ms = 3.5, .compute_time_ms = 1.25,
          .loading_time_ms = -0.0};
}

ae::EpisodeResult pinned_result() {
  return {.latencies_ms = {41.25, 57.5, -0.0},
          .frames_completed = 3,
          .ul_tb_total = 1200,
          .ul_tb_err = 7,
          .dl_tb_total = 900,
          .dl_tb_err = 2,
          .traces = {{.id = 17, .created_ms = 0.5, .sent_ms = 4.0, .ul_done_ms = 11.0,
                      .edge_in_ms = 12.5, .compute_start_ms = 13.0, .compute_done_ms = 30.0,
                      .enb_dl_ms = 31.5, .completed_ms = 41.75}}};
}

ae::BackendStats pinned_backend_stats(std::string name, ae::BackendKind kind,
                                      std::uint64_t base) {
  atlas::telemetry::HistogramData rtt;
  for (std::uint64_t s = 0; s < base; ++s) rtt.record(100000 + s * 7919);
  return {.name = std::move(name), .kind = kind, .queries = base + 40, .episodes = base + 19,
          .rpc_retries = base + 2, .rpc_failures = base, .rpc_reconnects = base + 4,
          .rpc_rtt_ns = std::move(rtt)};
}

ae::EnvServiceStats pinned_stats() {
  ae::EnvServiceStats stats;
  stats.backends = {pinned_backend_stats("sim-0", ae::BackendKind::kOffline, 0),
                    pinned_backend_stats("real-0", ae::BackendKind::kOnline, 5)};
  stats.offline_queries = 120;
  stats.online_queries = 7;
  for (std::uint64_t s = 0; s < 20; ++s) stats.query_latency_ns.record(1000 + s * 997);
  for (std::uint64_t s = 0; s < 10; ++s) stats.queue_depth.record(s % 5);
  for (std::uint64_t s = 0; s < 6; ++s) stats.rpc_service_ns.record(500000 + s);
  return stats;
}

ae::WorkerAnnounce pinned_announce() {
  return {.backends = {{.name = "sim-0", .kind = ae::BackendKind::kOffline,
                        .accepts_sim_params = true, .params_digest = 0xDEADBEEFCAFEF00Dull},
                       {.name = "real-0", .kind = ae::BackendKind::kOnline,
                        .accepts_sim_params = false, .params_digest = 0}}};
}

/// The corpus: `pinned_frames()[i]` is the frame of message type i + 1.
std::vector<std::vector<std::uint8_t>> pinned_frames() {
  ae::EnvQuery query{
      .backend = 3,
      .config = {.bandwidth_ul = 12.5, .bandwidth_dl = 30.0, .mcs_offset_ul = 2.0,
                 .mcs_offset_dl = 1.0, .backhaul_mbps = 80.0, .cpu_ratio = 0.75},
      .workload = {.traffic = 2, .duration_ms = 60000.0, .distance_m = 25.0, .random_walk = true,
                   .extra_users = 4, .collect_traces = true, .seed = 0x9E3779B97F4A7C15ull},
      .sim_params = pinned_sim_params()};
  return {
      ar::encode_query(101, query),
      ar::encode_result(102, pinned_result()),
      ar::encode_error(103, "no such backend: 99"),
      ar::encode_stats_request(104),
      ar::encode_stats_snapshot(105, pinned_stats()),
      ar::encode_hello(106),
      ar::encode_announce(107, pinned_announce()),
      ar::encode_heartbeat(108),
      ar::encode_heartbeat_ack(109, {.outstanding = 3, .episodes = 98765}),
      ar::encode_cancel(110),
  };
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// Decode `frame` the way a server or client would, then encode the decoded
/// message again under the same request id. Throws CodecError on a
/// malformed frame.
std::vector<std::uint8_t> reencode(const std::vector<std::uint8_t>& frame) {
  ar::WireReader reader(frame);
  const ar::FrameHeader header = ar::decode_header(reader);
  const std::uint64_t id = header.request_id;
  switch (header.type) {
    case ar::MsgType::kQuery: return ar::encode_query(id, ar::decode_query_body(reader));
    case ar::MsgType::kResult: return ar::encode_result(id, ar::decode_result_body(reader));
    case ar::MsgType::kError: return ar::encode_error(id, ar::decode_error_body(reader));
    case ar::MsgType::kStatsRequest: reader.expect_done(); return ar::encode_stats_request(id);
    case ar::MsgType::kStatsSnapshot:
      return ar::encode_stats_snapshot(id, ar::decode_stats_snapshot_body(reader));
    case ar::MsgType::kHello: reader.expect_done(); return ar::encode_hello(id);
    case ar::MsgType::kAnnounce: return ar::encode_announce(id, ar::decode_announce_body(reader));
    case ar::MsgType::kHeartbeat: reader.expect_done(); return ar::encode_heartbeat(id);
    case ar::MsgType::kHeartbeatAck:
      return ar::encode_heartbeat_ack(id, ar::decode_heartbeat_ack_body(reader));
    case ar::MsgType::kCancel: reader.expect_done(); return ar::encode_cancel(id);
  }
  throw std::logic_error("decode_header returned an unknown message type");
}

/// The CodecError message decoding `frame` raises, or "accepted".
std::string decode_error_of(const std::vector<std::uint8_t>& frame) {
  try {
    (void)reencode(frame);
  } catch (const ar::CodecError& e) {
    return e.what();
  }
  return "accepted";
}

/// Overwrite `width` bytes at `at` with `value`, little-endian.
void put_le(std::vector<std::uint8_t>& bytes, std::size_t at, std::size_t width,
            std::uint64_t value) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

}  // namespace

TEST(RpcCodec, QueryRoundTripsBitIdentically) {
  std::mt19937_64 rng(0xA71A5u);
  for (int rep = 0; rep < 500; ++rep) {
    const ae::EnvQuery q = random_query(rng);
    const ae::EnvQuery back = roundtrip_query(q, rng());

    EXPECT_EQ(back.backend, q.backend);
    const auto cv = q.config.to_vec();
    const auto bv = back.config.to_vec();
    ASSERT_EQ(cv.size(), bv.size());
    for (std::size_t i = 0; i < cv.size(); ++i) {
      EXPECT_TRUE(same_bits(cv[i], bv[i])) << "config dim " << i;
    }
    EXPECT_EQ(back.workload.traffic, q.workload.traffic);
    EXPECT_TRUE(same_bits(back.workload.duration_ms, q.workload.duration_ms));
    EXPECT_TRUE(same_bits(back.workload.distance_m, q.workload.distance_m));
    EXPECT_EQ(back.workload.random_walk, q.workload.random_walk);
    EXPECT_EQ(back.workload.extra_users, q.workload.extra_users);
    EXPECT_EQ(back.workload.collect_traces, q.workload.collect_traces);
    EXPECT_EQ(back.workload.seed, q.workload.seed);
    ASSERT_EQ(back.sim_params.has_value(), q.sim_params.has_value());
    if (q.sim_params) {
      const auto pv = q.sim_params->to_vec();
      const auto qv = back.sim_params->to_vec();
      ASSERT_EQ(pv.size(), qv.size());
      for (std::size_t i = 0; i < pv.size(); ++i) {
        EXPECT_TRUE(same_bits(pv[i], qv[i])) << "sim param " << i;
      }
    }
  }
}

TEST(RpcCodec, ResultRoundTripsBitIdentically) {
  std::mt19937_64 rng(0xEC0DECu);
  for (int rep = 0; rep < 500; ++rep) {
    const ae::EpisodeResult r = random_result(rng);
    const ae::EpisodeResult back = roundtrip_result(r, rng());

    ASSERT_EQ(back.latencies_ms.size(), r.latencies_ms.size());
    for (std::size_t i = 0; i < r.latencies_ms.size(); ++i) {
      EXPECT_TRUE(same_bits(back.latencies_ms[i], r.latencies_ms[i])) << "latency " << i;
    }
    EXPECT_EQ(back.frames_completed, r.frames_completed);
    EXPECT_EQ(back.ul_tb_total, r.ul_tb_total);
    EXPECT_EQ(back.ul_tb_err, r.ul_tb_err);
    EXPECT_EQ(back.dl_tb_total, r.dl_tb_total);
    EXPECT_EQ(back.dl_tb_err, r.dl_tb_err);
    ASSERT_EQ(back.traces.size(), r.traces.size());
    for (std::size_t i = 0; i < r.traces.size(); ++i) {
      EXPECT_EQ(back.traces[i].id, r.traces[i].id);
      EXPECT_TRUE(same_bits(back.traces[i].created_ms, r.traces[i].created_ms));
      EXPECT_TRUE(same_bits(back.traces[i].completed_ms, r.traces[i].completed_ms));
      EXPECT_TRUE(same_bits(back.traces[i].compute_start_ms, r.traces[i].compute_start_ms));
    }
  }
}

TEST(RpcCodec, TruncatedFramesAreRejected) {
  std::mt19937_64 rng(3);
  const auto frame = ar::encode_query(1, random_query(rng));
  // Every proper prefix must throw, never read past the end or misdecode.
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    std::vector<std::uint8_t> cut(frame.begin(), frame.begin() + keep);
    ar::WireReader reader(cut);
    EXPECT_THROW(
        {
          const auto header = ar::decode_header(reader);
          if (header.type == ar::MsgType::kQuery) (void)ar::decode_query_body(reader);
        },
        ar::CodecError)
        << "prefix of " << keep << " bytes";
  }
}

TEST(RpcCodec, CorruptedHeadersAreRejected) {
  std::mt19937_64 rng(4);
  const auto good = ar::encode_result(9, random_result(rng));

  {  // flipped magic
    auto bad = good;
    bad[0] ^= 0xFF;
    ar::WireReader reader(bad);
    EXPECT_THROW((void)ar::decode_header(reader), ar::CodecError);
  }
  // One wire version: every other stamp, older or newer, is rejected.
  for (const unsigned version : {0u, 3u, 4u, 5u, 6u, 7u, 8u, ar::kWireVersion + 1u, 0x7Fu}) {
    auto bad = good;
    bad[4] = static_cast<std::uint8_t>(version);  // u16 version after the u32 magic
    bad[5] = 0;
    ar::WireReader reader(bad);
    EXPECT_THROW((void)ar::decode_header(reader), ar::CodecError) << "version " << version;
  }
  // Unknown message types. Since v6 kCancel is type 10, and 11-14 (v5's
  // memo-snapshot, install, install-ack and cancel ids) are retired.
  for (const unsigned type : {0u, 11u, 12u, 13u, 14u, 0x63u}) {
    auto bad = good;
    bad[6] = static_cast<std::uint8_t>(type);  // u16 type after the version
    bad[7] = 0;
    ar::WireReader reader(bad);
    EXPECT_THROW((void)ar::decode_header(reader), ar::CodecError) << "type " << type;
  }
}

TEST(RpcCodec, TrailingGarbageIsRejected) {
  std::mt19937_64 rng(5);
  auto frame = ar::encode_query(2, random_query(rng));
  frame.push_back(0xAB);
  ar::WireReader reader(frame);
  (void)ar::decode_header(reader);
  EXPECT_THROW((void)ar::decode_query_body(reader), ar::CodecError);
}

TEST(RpcCodec, StatsSnapshotRoundTrips) {
  // A worker's EnvServiceStats — counters, per-backend rows, and the
  // sparse-encoded serving histograms — must survive the trip exactly.
  const ae::EnvServiceStats stats = pinned_stats();

  const auto frame = ar::encode_stats_snapshot(42, stats);
  ar::WireReader reader(frame);
  const auto header = ar::decode_header(reader);
  EXPECT_EQ(header.type, ar::MsgType::kStatsSnapshot);
  EXPECT_EQ(header.request_id, 42u);
  const ae::EnvServiceStats back = ar::decode_stats_snapshot_body(reader);

  EXPECT_EQ(back.offline_queries, stats.offline_queries);
  EXPECT_EQ(back.online_queries, stats.online_queries);
  ASSERT_EQ(back.backends.size(), stats.backends.size());
  for (std::size_t i = 0; i < stats.backends.size(); ++i) {
    EXPECT_EQ(back.backends[i].name, stats.backends[i].name);
    EXPECT_EQ(back.backends[i].kind, stats.backends[i].kind);
    EXPECT_EQ(back.backends[i].queries, stats.backends[i].queries);
    EXPECT_EQ(back.backends[i].episodes, stats.backends[i].episodes);
    EXPECT_EQ(back.backends[i].rpc_retries, stats.backends[i].rpc_retries);
    EXPECT_EQ(back.backends[i].rpc_reconnects, stats.backends[i].rpc_reconnects);
    EXPECT_EQ(back.backends[i].rpc_rtt_ns.counts(), stats.backends[i].rpc_rtt_ns.counts());
    EXPECT_EQ(back.backends[i].rpc_rtt_ns.sum(), stats.backends[i].rpc_rtt_ns.sum());
  }
  EXPECT_EQ(back.query_latency_ns.counts(), stats.query_latency_ns.counts());
  EXPECT_EQ(back.query_latency_ns.sum(), stats.query_latency_ns.sum());
  EXPECT_EQ(back.queue_depth.counts(), stats.queue_depth.counts());
  EXPECT_EQ(back.rpc_service_ns.counts(), stats.rpc_service_ns.counts());
}

TEST(RpcCodec, EmptyStatsSnapshotRoundTrips) {
  const auto frame = ar::encode_stats_snapshot(1, ae::EnvServiceStats{});
  ar::WireReader reader(frame);
  EXPECT_EQ(ar::decode_header(reader).type, ar::MsgType::kStatsSnapshot);
  const ae::EnvServiceStats back = ar::decode_stats_snapshot_body(reader);
  EXPECT_TRUE(back.backends.empty());
  EXPECT_TRUE(back.query_latency_ns.empty());
  EXPECT_EQ(back.total_queries(), 0u);
}

// ---- farm control plane -----------------------------------------------------

TEST(RpcCodec, AnnounceRoundTrips) {
  const ae::WorkerAnnounce announce = pinned_announce();
  const ae::WorkerBackendInfo& sim = announce.backends[0];

  const auto frame = ar::encode_announce(42, announce);
  ar::WireReader reader(frame);
  const auto header = ar::decode_header(reader);
  EXPECT_EQ(header.type, ar::MsgType::kAnnounce);
  EXPECT_EQ(header.request_id, 42u);
  const ae::WorkerAnnounce back = ar::decode_announce_body(reader);
  ASSERT_EQ(back.backends.size(), 2u);
  EXPECT_EQ(back.backends[0].name, "sim-0");
  EXPECT_EQ(back.backends[0].kind, ae::BackendKind::kOffline);
  EXPECT_TRUE(back.backends[0].accepts_sim_params);
  EXPECT_EQ(back.backends[0].params_digest, sim.params_digest);
  EXPECT_EQ(back.backends[0].equivalence_key(), sim.equivalence_key());
  EXPECT_EQ(back.backends[1].kind, ae::BackendKind::kOnline);
}

// ---- frame pins: the v9 layout, byte for byte --------------------------------

TEST(RpcCodec, FrameBytesArePinnedForEveryMessageType) {
  // FNV-1a of the corpus frame of each message type, in type order. The
  // values were captured from the v9 encoder; a change here is a wire-format
  // change and needs a kWireVersion bump. Each frame must also decode to a
  // message that re-encodes to the same bytes: with the encoder pinned, that
  // proves every decoded field lands where the encoder wrote it.
  const std::vector<std::uint64_t> pinned = {
      0x96d6c8b3e433e260ull,  // kQuery
      0x259845a4d5fee2bbull,  // kResult
      0xc7269596f0f32541ull,  // kError
      0xdd955edb0e737776ull,  // kStatsRequest
      0xf1e3603600b79c4bull,  // kStatsSnapshot
      0x67a42f6b9556d7a6ull,  // kHello
      0x3dc0712d24bd594bull,  // kAnnounce
      0x62bd9d2305911e5eull,  // kHeartbeat
      0xfb2a06ec6195173aull,  // kHeartbeatAck
      0xeccc6db38c747e8eull,  // kCancel
  };

  const auto frames = pinned_frames();
  ASSERT_EQ(frames.size(), pinned.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ar::WireReader reader(frames[i]);
    EXPECT_EQ(static_cast<std::size_t>(ar::decode_header(reader).type), i + 1);
    EXPECT_EQ(fnv1a(frames[i]), pinned[i]) << "message type " << i + 1 << " hashes to 0x"
                                           << std::hex << fnv1a(frames[i]);
    EXPECT_EQ(reencode(frames[i]), frames[i]) << "message type " << i + 1;
  }
}

// ---- untrusted counts and enum bytes -----------------------------------------

TEST(RpcCodec, ElementCountsAreBoundedByTheBytesLeftInTheFrame) {
  // Frames of empty messages with one list count overwritten: each is a few
  // dozen bytes but claims a list that would take tens of megabytes (or, for
  // the last, exabytes) to hold. The count alone must reject it, before the
  // decoder reserves anything.
  struct Lie {
    const char* what;
    std::vector<std::uint8_t> frame;
    std::size_t count_at;
    std::size_t width;
    std::uint64_t count;
  };
  // The announce count is its frame's last field.
  const auto announce = ar::encode_announce(1, {});
  const std::vector<Lie> lies = {
      {"announced backends", announce, announce.size() - 4, 4, 2u << 20},
      {"stats snapshot rows", ar::encode_stats_snapshot(1, {}), 16, 4, 1u << 20},
      {"result latencies", ar::encode_result(1, {}), 16, 8, 8u << 20},
      {"result latencies", ar::encode_result(1, {}), 16, 8, ~0ull},
  };
  for (Lie lie : lies) {
    put_le(lie.frame, lie.count_at, lie.width, lie.count);
    const std::string error = decode_error_of(lie.frame);
    EXPECT_NE(error.find("implausible"), std::string::npos)
        << lie.what << " (" << lie.frame.size() << " bytes): " << error;
  }
}

TEST(RpcCodec, SmallestListElementsStillRoundTrip) {
  // The count bound divides by each element's smallest encoding, so elements
  // of exactly that size must still decode: backends with an empty name (14
  // bytes) and stats rows with an empty name and empty histograms.
  ae::WorkerAnnounce announce;
  announce.backends.resize(4);
  const auto announce_frame = ar::encode_announce(2, announce);
  EXPECT_EQ(announce_frame.size(), 16u + 4u + 4u * 14u);
  EXPECT_EQ(reencode(announce_frame), announce_frame);

  ae::EnvServiceStats stats;
  stats.backends.resize(2);
  const auto stats_frame = ar::encode_stats_snapshot(3, stats);
  EXPECT_EQ(reencode(stats_frame), stats_frame);
}

TEST(RpcCodec, UnknownBackendKindBytesAreRejected) {
  // One flipped bit turns kind 1 (online) into 3. Read as offline, a metered
  // real-network backend's queries would escape the SLA-exposure meter.
  ae::WorkerAnnounce announce;
  announce.backends.resize(1);
  announce.backends[0].kind = ae::BackendKind::kOnline;
  auto frame = ar::encode_announce(1, announce);
  // Header, count, empty name.
  const std::size_t announce_kind_at = 16 + 4 + 4;
  ASSERT_EQ(frame.at(announce_kind_at), 1u);
  frame[announce_kind_at] ^= 0x02;
  EXPECT_NE(decode_error_of(frame).find("backend kind"), std::string::npos)
      << decode_error_of(frame);

  ae::EnvServiceStats stats;
  stats.backends.resize(1);
  stats.backends[0].kind = ae::BackendKind::kOnline;
  auto stats_frame = ar::encode_stats_snapshot(2, stats);
  const std::size_t row_kind_at = 16 + 4 + 4;  // header, row count, empty name
  ASSERT_EQ(stats_frame.at(row_kind_at), 1u);
  stats_frame[row_kind_at] ^= 0x02;
  EXPECT_NE(decode_error_of(stats_frame).find("backend kind"), std::string::npos)
      << decode_error_of(stats_frame);
}

// ---- deterministic wire mutation ---------------------------------------------

namespace {

/// Tally of decoding mutated frames. A decode must end in a CodecError or in
/// a message whose re-encoding decodes back to the same bytes; anything else
/// (another exception type, an unstable round trip) is a finding.
struct MutationTally {
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  std::size_t findings = 0;
  std::string first_finding;

  void judge(const std::vector<std::uint8_t>& frame, std::size_t type, const char* kind,
             std::size_t detail) {
    std::string finding;
    try {
      const auto once = reencode(frame);
      try {
        if (reencode(once) == once) {
          ++accepted;
          return;
        }
        finding = "re-encoding does not round-trip";
      } catch (const std::exception& e) {
        finding = std::string("re-encoding fails to decode: ") + e.what();
      }
    } catch (const ar::CodecError&) {
      ++rejected;
      return;
    } catch (const std::exception& e) {
      finding = std::string("non-codec exception: ") + e.what();
    }
    if (findings++ == 0) {
      first_finding = "type " + std::to_string(type) + ", " + kind + " " +
                      std::to_string(detail) + ": " + finding;
    }
  }
};

/// Values a lying count or length field might carry, given `left` bytes from
/// the field to the end of the frame.
std::vector<std::uint64_t> length_lies(std::size_t left) {
  return {0,          1,           0x7F,         0xFFFFFFFFFFFFFFFFull, 0x80000000ull,
          1ull << 20, left,        left / 8 + 1, left / 4};
}

}  // namespace

TEST(RpcCodec, SeededWireMutationsFailCleanlyOrRoundTrip) {
  // The pinned frames as a seeded corpus: every proper prefix, every single
  // bit flip, a lying 4- or 8-byte field at every offset, and seeded
  // duplicated byte runs. Run under ASan+UBSan this also proves no mutation
  // reads out of bounds or reserves an absurd buffer.
  std::mt19937_64 rng(0x5EEDC0DEu);
  MutationTally tally;
  const auto corpus = pinned_frames();
  for (std::size_t t = 0; t < corpus.size(); ++t) {
    const std::vector<std::uint8_t>& seed = corpus[t];
    const std::size_t type = t + 1;
    const std::size_t n = seed.size();

    for (std::size_t keep = 0; keep < n; ++keep) {
      tally.judge({seed.begin(), seed.begin() + static_cast<std::ptrdiff_t>(keep)}, type,
                  "truncation to", keep);
    }
    for (std::size_t bit = 0; bit < n * 8; ++bit) {
      auto mutated = seed;
      mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      tally.judge(mutated, type, "bit flip", bit);
    }
    for (const std::size_t width : {std::size_t{4}, std::size_t{8}}) {
      for (std::size_t at = 0; at + width <= n; ++at) {
        for (const std::uint64_t lie : length_lies(n - at)) {
          auto mutated = seed;
          put_le(mutated, at, width, lie);
          tally.judge(mutated, type, "length lie at", at);
        }
      }
    }
    for (std::size_t rep = 0; rep < 1000; ++rep) {
      const std::size_t start = rng() % n;
      const std::size_t len = 1 + rng() % std::min<std::size_t>(32, n - start);
      auto mutated = seed;
      const auto run = seed.begin() + static_cast<std::ptrdiff_t>(start);
      mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(start + len), run,
                     run + static_cast<std::ptrdiff_t>(len));
      tally.judge(mutated, type, "duplicated run at", start);
    }
  }
  EXPECT_EQ(tally.findings, 0u) << tally.first_finding;
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_GT(tally.accepted, 0u);
}

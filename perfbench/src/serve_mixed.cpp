// serve_mixed: gill-collectord serves a pre-built compressed segment store
// about twice its cache budget while one paced BGP session writes new
// windows (short --rotate-secs), one /v1/stream subscriber times every
// update against its due time, and two closed-loop /v1/data clients run a
// fixed query mix over the historical windows.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "archive/archive_writer.hpp"
#include "archive/query_engine.hpp"
#include "archive/segment_cache.hpp"
#include "checks.hpp"
#include "feed/live_feed.hpp"
#include "harness/http_client.hpp"
#include "harness/interarrival.hpp"
#include "loadgen.hpp"
#include "net/event_loop.hpp"
#include "net/http_endpoint.hpp"
#include "net/stream.hpp"
#include "netbase/prefix_alloc.hpp"
#include "parallel/thread_pool.hpp"
#include "workloads.hpp"
#include "world.hpp"

namespace perfbench {

namespace {

using namespace gill;

/// History starts here (2020-09-13), 15-minute windows.
constexpr Timestamp kHistoryStart = 1600000200;
constexpr Timestamp kWindow = 900;
/// Epochs of the dual-stack world stream in the store; each spans 6.5 h
/// (26 windows) with its own prefix block, so a prefix lives in one epoch
/// and the bloom filters prune the others.
constexpr std::uint32_t kEpochs = 2;
constexpr Timestamp kEpochSecs =
    RefreshWorld::kTrainingSecs + RefreshWorld::kNextSecs;
constexpr std::size_t kHistoryWindows = kEpochs * kEpochSecs / kWindow;
/// The collector's cache budget: about half the store's decompressed bytes.
constexpr std::size_t kCacheBytes = 8u << 20;
constexpr long kRotateSecs = 2;
/// The paced session's mean rate, below where stream latency grows.
constexpr double kPacedRate = 4000;
/// Lateness p99 above which the generator did not keep its schedule: half
/// a 200 ms collector tick, where the offered load itself is distorted.
/// (Stream latency is timed from the due time, so lateness below this is
/// still charged to the stream.)
constexpr double kLateLimitMs = 100;
constexpr std::size_t kQueryClients = 2;
/// Live rounds per run, each with a fresh collectord.
constexpr std::size_t kRounds = 16;
/// Where each round's query sequence starts, per client; a client that
/// gets further wraps around its whole list rather than run dry.
constexpr std::size_t kQueriesPerRound = 1000;

struct Query {
  archive::QueryOptions options;
  std::string target;  // the /v1/data request line target
  std::string key() const { return target; }
};

/// One round's live inputs: a fresh collectord per round samples a fresh
/// phase between its shard and control ticks, which sets stream latency.
struct RoundInputs {
  EncodedCorpus paced;          // tagged, for the one live session
  std::vector<double> due_ms;   // paced offsets, long-memory
  std::size_t first_query = 0;  // where the clients' sequences resume
};

struct ServeInputs {
  RefreshWorld world;
  std::uint64_t history_records = 0;
  std::vector<Query> queries[kQueryClients];
  std::vector<RoundInputs> rounds;
};

/// Writes the history store with the public SegmentWriter (compressed).
std::uint64_t write_store(const RefreshWorld& world, const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  archive::SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = kWindow;
  config.compress = true;
  archive::SegmentWriter writer(config);
  writer.open();
  UpdateStream stream = world.training;
  stream.append(world.next);
  std::uint64_t records = 0;
  for (std::uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
    for (Update update : dual_stack(stream, epoch)) {
      update.time = kHistoryStart + epoch * kEpochSecs +
                    std::min<Timestamp>(update.time, kEpochSecs - 1);
      writer.store(update);
      ++records;
    }
  }
  writer.close();
  return records;
}

Query make_query(archive::QueryOptions options) {
  Query query;
  query.target = "/v1/data?start=" + std::to_string(options.start) +
                 "&end=" + std::to_string(options.end);
  if (options.vp) query.target += "&vp=" + std::to_string(*options.vp);
  if (options.prefix) query.target += "&prefix=" + options.prefix->str();
  query.options = std::move(options);
  return query;
}

/// The fixed mix: 50% one recent window (geometric toward the newest),
/// 30% one prefix over the whole history, 20% one VP over 6 hours. The
/// kinds repeat in a fixed cycle of ten; the seed draws their parameters.
std::vector<Query> make_queries(const RefreshWorld& world, std::uint64_t seed,
                                std::size_t count) {
  std::mt19937_64 rng(seed);
  std::geometric_distribution<int> age(0.3);
  const Timestamp history_end = kHistoryStart + kEpochs * kEpochSecs;
  const std::size_t vps = world.vp_hosts.size();
  const std::size_t six_hours = 6 * 3600 / kWindow;
  std::vector<Query> queries;
  constexpr char kCycle[] = "WPWVWPWVWP";  // 5 window, 3 prefix, 2 VP
  for (std::size_t i = 0; i < count; ++i) {
    archive::QueryOptions options;
    const char kind = kCycle[i % 10];
    if (kind == 'W') {
      const std::size_t back =
          std::min<std::size_t>(age(rng), kHistoryWindows - 1);
      options.start = kHistoryStart + (kHistoryWindows - 1 - back) * kWindow;
      options.end = options.start + kWindow;
    } else if (kind == 'P') {
      const auto slot = static_cast<std::uint32_t>(
          rng() % (400 * kEpochs));
      options.start = kHistoryStart;
      options.end = history_end;
      options.prefix = rng() % 2 == 0 ? net::PrefixAllocator::v4_slot(slot)
                                      : net::PrefixAllocator::v6_slot(slot);
    } else {
      const std::size_t first = rng() % (kHistoryWindows - six_hours + 1);
      options.start = kHistoryStart + first * kWindow;
      options.end = options.start + six_hours * kWindow;
      options.vp = static_cast<bgp::VpId>(rng() % vps);
    }
    queries.push_back(make_query(std::move(options)));
  }
  return queries;
}

ServeInputs make_inputs(std::uint64_t seed, std::size_t rounds,
                        double round_seconds, const std::string& store_dir) {
  ServeInputs inputs;
  inputs.world = make_refresh_world();
  inputs.history_records = write_store(inputs.world, store_dir);
  for (std::size_t client = 0; client < kQueryClients; ++client) {
    inputs.queries[client] =
        make_queries(inputs.world, seed * 7919 + client,
                     rounds * kQueriesPerRound);
  }
  UpdateStream stream = inputs.world.training;
  stream.append(inputs.world.next);
  const std::vector<Update> live = dual_stack(stream, kEpochs);
  const auto count = static_cast<std::size_t>(kPacedRate * round_seconds);
  harness::InterarrivalConfig pacing;
  pacing.mean_rate_per_sec = kPacedRate;
  pacing.seed = seed * 31 + 7;
  harness::LongMemoryScheduler scheduler(pacing);
  std::size_t offset = seed * 104729 % live.size();
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<Update> paced;
    paced.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      paced.push_back(live[(offset + i) % live.size()]);
    }
    offset += count;
    RoundInputs inputs_of_round;
    inputs_of_round.paced = encode_corpus(std::move(paced), /*tag=*/true);
    inputs_of_round.due_ms = scheduler.pace(count, round_seconds * 1000.0);
    inputs_of_round.first_query = round * kQueriesPerRound;
    inputs.rounds.push_back(std::move(inputs_of_round));
  }
  return inputs;
}

/// Updates the store's manifest lists.
double archived_updates(const std::string& store_dir) {
  double archived = 0;
  for (const auto& meta : archive::load_manifest(store_dir)) {
    archived += static_cast<double>(meta.updates);
  }
  return archived;
}

std::uint64_t digest_of(const std::string& bytes) {
  return digest(bytes.data(), bytes.size());
}

/// Drains one engine query; returns the body and the time spent.
std::string run_engine_query(archive::QueryEngine& engine,
                             const archive::QueryOptions& options,
                             double* plan_s, double* scan_s) {
  const double start = now_s();
  auto cursor = engine.query(options);
  const double planned = now_s();
  std::string body;
  while (cursor->next_chunk(body)) {
  }
  const double done = now_s();
  if (plan_s) *plan_s = planned - start;
  if (scan_s) *scan_s = done - planned;
  return body;
}

/// A /v1/stream NDJSON subscriber: pumps a harness::StreamClient every
/// millisecond and time-stamps each record that arrived since.
class Subscriber {
 public:
  bool connect(std::uint16_t port) {
    return client_.connect("127.0.0.1", port, "/v1/stream");
  }

  /// Reads until `expected` records arrived (once it is set) or `stop`.
  void run(const std::atomic<std::size_t>& expected,
           const std::atomic<bool>& stop) {
    while (!stop.load() && records.size() < expected.load()) {
      const bool live = client_.pump();
      parse(now_s());
      if (!live) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  bool ok_status() const { return client_.status() == 200; }

  // Owned by the reading thread until run() returns; `received` is the
  // count other threads may watch meanwhile.
  std::vector<StreamRecord> records;
  std::vector<double> received_s;
  std::atomic<std::size_t> received{0};

 private:
  void parse(double at) {
    const auto& payload = client_.payload();
    const char* text = reinterpret_cast<const char*>(payload.data());
    for (;;) {
      const std::string_view rest(text + parsed_, payload.size() - parsed_);
      const auto newline = rest.find('\n');
      if (newline == std::string_view::npos) return;
      parsed_ += newline + 1;
      const auto message = feed::decode_live(rest.substr(0, newline));
      StreamRecord record;
      if (message && !message->announcements.empty()) {
        record.prefix = message->announcements.front();
        record.tag = corpus_tag(message->communities);
      } else if (message && !message->withdrawals.empty()) {
        record.prefix = message->withdrawals.front();
        record.withdrawal = true;
      }
      records.push_back(record);
      received_s.push_back(at);
      received.store(records.size());
    }
  }

  harness::StreamClient client_;
  std::size_t parsed_ = 0;  // payload bytes already split into records
};

/// One served query, as a client saw it.
struct Served {
  std::size_t client = 0;
  std::size_t index = 0;
  double latency_ms = 0;
  int status = 0;
  std::uint64_t digest = 0;
};

/// What one live phase (collectord + paced session + subscriber
/// [+ query clients]) produced.
struct LivePhase {
  bool ok = false;
  double setup_s = 0;
  double load_s = 0;
  double collector_cpu_s = 0;
  double loadgen_cpu_s = 0;
  double rss_mb = 0;
  PacedResult paced;
  std::vector<double> stream_latency_ms;
  std::size_t stream_missing = 0;
  std::vector<Served> served;
  std::uint64_t live_stored = 0;
  double drained = 0;          // gill_sharded_stream_drained_total delta
  double queue_max_bytes = 0;  // max gill_stream_queue_bytes sampled
};

std::vector<std::string> serve_flags(const std::string& store_dir,
                                     std::uint16_t peer_port) {
  return {"--archive-dir", store_dir, "--archive-compress",
          "--rotate-secs", std::to_string(kRotateSecs),
          "--archive-cache-bytes", std::to_string(kCacheBytes),
          "--dial", "127.0.0.1:" + std::to_string(peer_port) + ":65001"};
}

/// Starts collectord on `store_dir`, establishes the paced session and the
/// subscriber, then runs the load for `seconds`. With `queries` false only
/// the stream runs, and the main thread samples the stream gauges.
LivePhase run_live(const Options& options, const ServeInputs& inputs,
                   std::size_t round, const std::string& store_dir,
                   bool queries, Report& report, RunRecord& record) {
  LivePhase phase;
  const std::string tag = "round " + std::to_string(round) + ": ";
  const RoundInputs& live = inputs.rounds[round];
  const double archived_before = archived_updates(store_dir);
  const double setup_start = now_s();
  PeerSession peer;
  if (!report.check(tag + "generator listens", peer.listen())) return phase;
  const auto flags = serve_flags(store_dir, peer.port());
  record.collectord_flags =
      "--archive-dir <dir> --archive-compress --rotate-secs " +
      std::to_string(kRotateSecs) + " --archive-cache-bytes " +
      std::to_string(kCacheBytes) + " --dial 127.0.0.1:<port>:65001";
  Collectord collectord;
  if (!report.check(tag + "collectord starts",
                    collectord.start(options.bin_dir + "/gill-collectord",
                                     flags, store_dir + ".log"))) {
    return phase;
  }
  const bool established =
      peer.handshake(65001, 30) &&
      wait_established(collectord.http_port(), 1, 30);
  if (!report.check(tag + "paced session Established", established)) {
    return phase;
  }
  Subscriber subscriber;
  bool subscribed = subscriber.connect(collectord.http_port());
  for (int i = 0; subscribed && i < 2000; ++i) {
    const auto scrape = Scrape::fetch(collectord.http_port());
    if (scrape && scrape->sum("gill_stream_subscribers") >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (i == 1999) subscribed = false;
  }
  phase.setup_s = now_s() - setup_start;
  if (!report.check(tag + "stream subscriber registered", subscribed)) {
    return phase;
  }
  const auto before = Scrape::fetch(collectord.http_port());

  std::atomic<bool> stop{false};
  std::atomic<bool> stop_subscriber{false};
  std::atomic<std::size_t> expected{SIZE_MAX};
  std::thread reader([&] { subscriber.run(expected, stop_subscriber); });
  std::mutex served_mutex;
  std::vector<std::thread> clients;
  const double cpu_before = proc_cpu_s(collectord.pid());
  const double loadgen_before = process_cpu_s();
  const double start = now_s() + 0.05;
  if (queries) {
    for (std::size_t client = 0; client < kQueryClients; ++client) {
      clients.emplace_back([&, client] {
        const auto& list = inputs.queries[client];
        for (std::size_t i = live.first_query; !stop.load(); ++i) {
          const std::size_t index = i % list.size();
          const double sent_at = now_s();
          const auto response = harness::http_get(
              "127.0.0.1", collectord.http_port(), list[index].target, 30000);
          Served served;
          served.client = client;
          served.index = index;
          served.latency_ms = (now_s() - sent_at) * 1000.0;
          served.status = response ? response->status : 0;
          served.digest = response ? digest_of(response->body) : 0;
          if (stop.load()) break;  // finished after the phase ended
          const std::lock_guard<std::mutex> lock(served_mutex);
          phase.served.push_back(served);
        }
      });
    }
  }
  std::thread sampler;
  if (!queries) {
    sampler = std::thread([&] {
      while (!stop.load()) {
        const auto scrape = Scrape::fetch(collectord.http_port());
        if (scrape) {
          phase.queue_max_bytes = std::max(
              phase.queue_max_bytes, scrape->sum("gill_stream_queue_bytes"));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  phase.paced = paced(peer, live.paced, live.due_ms, start);
  stop = true;
  phase.load_s = now_s() - start;
  phase.collector_cpu_s = proc_cpu_s(collectord.pid()) - cpu_before;
  for (auto& client : clients) client.join();
  if (sampler.joinable()) sampler.join();
  phase.loadgen_cpu_s = process_cpu_s() - loadgen_before;
  expected = phase.paced.sent;
  const double stream_deadline = now_s() + 10;
  while (subscriber.received.load() < phase.paced.sent &&
         now_s() < stream_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop_subscriber = true;
  reader.join();
  phase.rss_mb = proc_status_mb(collectord.pid(), "VmHWM");

  const std::vector<Update> sent(
      live.paced.updates.begin(),
      live.paced.updates.begin() +
          static_cast<std::ptrdiff_t>(phase.paced.sent));
  phase.stream_missing = stream_mismatches(sent, subscriber.records);
  for (std::size_t i = 0; i < sent.size() && i < subscriber.records.size();
       ++i) {
    phase.stream_latency_ms.push_back(
        (subscriber.received_s[i] - phase.paced.due_s[i]) * 1000.0);
  }
  const auto after = Scrape::fetch(collectord.http_port());
  if (before && after) {
    phase.drained = after->sum("gill_sharded_stream_drained_total") -
                    before->sum("gill_sharded_stream_drained_total");
    phase.live_stored = static_cast<std::uint64_t>(
        after->sum("gill_daemon_updates_stored_total"));
  }
  report.check(tag + "subscriber status 200", subscriber.ok_status());
  const bool clean_exit = collectord.stop();
  report.check(tag + "collectord exits cleanly", clean_exit);
  const std::string archive_problem =
      check_archive(archived_updates(store_dir) - archived_before,
                    static_cast<double>(phase.live_stored));
  report.check(tag + "archive live records = stored", archive_problem.empty(),
               archive_problem);
  phase.ok = phase.paced.ok && clean_exit && archive_problem.empty();
  return phase;
}

/// Digests of the serial engine's answers (pool = nullptr) to every query
/// in `keys`. Each worker runs its own serial engine; they share one cache
/// that holds the whole store, so each segment is decoded once.
std::map<std::string, std::uint64_t> reference_digests(
    const std::string& store_dir,
    const std::map<std::string, const Query*>& keys) {
  archive::SegmentCache cache({.max_bytes = std::size_t{1} << 30});
  std::vector<std::pair<std::string, const Query*>> work(keys.begin(),
                                                         keys.end());
  std::vector<std::uint64_t> digests(work.size());
  par::ThreadPool workers(par::auto_thread_count());
  workers.parallel_for(work.size(), [&](std::size_t begin, std::size_t end) {
    archive::QueryEngineConfig config;
    config.directory = store_dir;
    config.cache = &cache;
    archive::QueryEngine serial(config);
    serial.open();
    for (std::size_t i = begin; i < end; ++i) {
      digests[i] = digest_of(
          run_engine_query(serial, work[i].second->options, nullptr, nullptr));
    }
  });
  std::map<std::string, std::uint64_t> reference;
  for (std::size_t i = 0; i < work.size(); ++i) {
    reference[work[i].first] = digests[i];
  }
  return reference;
}

}  // namespace

void run_serve_mixed(const Options& options, Report& report,
                     RunRecord& record) {
  const std::string store_dir = options.work_dir + "/serve-store";
  // The inputs (world and store) are built twice and set-up reports the
  // median build.
  std::vector<double> builds;
  ServeInputs inputs;
  for (int i = 0; i < 2; ++i) {
    const double start = now_s();
    inputs = make_inputs(options.seed, kRounds, options.seconds / kRounds,
                         store_dir);
    builds.push_back(now_s() - start);
  }
  const double input_s = median(builds);
  report.info("history_records", static_cast<double>(inputs.history_records),
              "records");
  report.info("inputs_s (world + store)", input_s, "s");

  std::vector<double> setup, stream_ms, late_ms, rss;
  std::vector<Served> served;
  double load_s = 0;
  double collector_cpu_s = 0;
  double loadgen_cpu_s = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::string tag = "round " + std::to_string(round) + ": ";
    const LivePhase phase =
        run_live(options, inputs, round, store_dir, true, report, record);
    if (phase.paced.sent == 0) {
      report.attempt();
      report.fail();
      report.check(tag + "live phase ran", false);
      continue;
    }
    // Every paced update reached the subscriber and the generator kept pace.
    report.attempt(phase.paced.sent);
    report.fail(phase.stream_missing);
    report.check(tag + "every paced update reached the subscriber",
                 phase.stream_missing == 0,
                 std::to_string(phase.stream_missing) + " of " +
                     std::to_string(phase.paced.sent) + " missing or wrong");
    const double late_p99 = quantile(phase.paced.late_ms, 0.99);
    const bool late = late_p99 > kLateLimitMs;
    report.check(tag + "generator kept pace", !late,
                 "late p99 " + format_double(late_p99) + " ms");
    if (late || !phase.ok) report.fail(phase.paced.sent - phase.stream_missing);
    setup.push_back(phase.setup_s);
    stream_ms.insert(stream_ms.end(), phase.stream_latency_ms.begin(),
                     phase.stream_latency_ms.end());
    late_ms.insert(late_ms.end(), phase.paced.late_ms.begin(),
                   phase.paced.late_ms.end());
    rss.push_back(phase.rss_mb);
    load_s += phase.load_s;
    collector_cpu_s += phase.collector_cpu_s;
    loadgen_cpu_s += phase.loadgen_cpu_s;
    served.insert(served.end(), phase.served.begin(), phase.served.end());
  }
  if (setup.empty() || served.empty()) {
    report.check("queries were served", false);
    return;
  }

  // Every query answered 200 with the serial in-process engine's bytes.
  std::map<std::string, const Query*> distinct;
  for (const Served& one : served) {
    const Query& query = inputs.queries[one.client][one.index];
    distinct.emplace(query.key(), &query);
  }
  const double check_start = now_s();
  const auto reference = reference_digests(store_dir, distinct);
  std::size_t wrong = 0;
  std::vector<double> query_ms;
  for (const Served& one : served) {
    const Query& query = inputs.queries[one.client][one.index];
    const bool ok = one.status == 200 &&
                    check_digest(one.digest, reference.at(query.key())).empty();
    if (!ok) ++wrong;
    query_ms.push_back(one.latency_ms);
  }
  report.attempt(served.size());
  report.fail(wrong);
  report.check("/v1/data answers equal the serial engine's", wrong == 0,
               std::to_string(wrong) + " of " + std::to_string(served.size()) +
                   " differ (" + std::to_string(reference.size()) +
                   " distinct queries)");

  const double queries_per_s = static_cast<double>(served.size()) / load_s;
  report.info("reference check", now_s() - check_start, "s");
  report.info("stream samples", static_cast<double>(stream_ms.size()), "");
  report.info("stream_p50_ms", quantile(stream_ms, 0.5), "ms");
  report.info("stream_p99_ms", quantile(stream_ms, 0.99), "ms");
  report.info("query samples", static_cast<double>(query_ms.size()), "");
  report.info("query_p50_ms", quantile(query_ms, 0.5), "ms");
  report.info("query_p99_ms", quantile(query_ms, 0.99), "ms");
  report.info("query_rps", queries_per_s, "queries/s");
  report.info("collector_rss_mb", median(rss), "MiB");
  report.info("loadgen.late_ms_p99", quantile(late_ms, 0.99), "ms");
  report.info("loadgen.cpu_util", loadgen_cpu_s / load_s, "cores");
  report.info("collector.cpu_util", collector_cpu_s / load_s, "cores");
  report.metric("setup_s", input_s + median(setup), "s");
  report.metric("throughput", queries_per_s, "1/s");
  report.metric("p50_ms", quantile(stream_ms, 0.5), "ms");
  report.metric("p99_ms", quantile(stream_ms, 0.99), "ms");
  report.metric("cpu_us",
                collector_cpu_s * 1e6 / static_cast<double>(served.size()),
                "us");
  report.metric("rss_mb", median(rss), "MiB");
}

void trace_serve_layers(const Options& options, Report& report,
                        RunRecord& record) {
  const std::string store_dir = options.work_dir + "/serve-store";
  const double seconds = std::min(options.seconds, 5.0);
  const ServeInputs inputs = make_inputs(options.seed, 1, seconds, store_dir);

  // The query sequence both clients start with, interleaved.
  constexpr std::size_t kTraced = 300;
  std::vector<const Query*> sequence;
  for (std::size_t i = 0; sequence.size() < kTraced; ++i) {
    for (std::size_t client = 0; client < kQueryClients; ++client) {
      sequence.push_back(&inputs.queries[client][i]);
    }
  }

  // In process, built like collectord's engine: scan pool of one thread
  // per core, the same cache budget, pins.
  par::ThreadPool pool(par::auto_thread_count());
  archive::SegmentCache cache({.max_bytes = kCacheBytes});
  archive::SegmentPins pins;
  archive::QueryEngineConfig config;
  config.directory = store_dir;
  config.pool = &pool;
  config.cache = &cache;
  config.pins = &pins;
  archive::QueryEngine engine(config);
  engine.open();
  std::vector<double> plan_us, scan_us, engine_ms;
  for (const Query* query : sequence) {
    double plan = 0;
    double scan = 0;
    run_engine_query(engine, query->options, &plan, &scan);
    plan_us.push_back(plan * 1e6);
    scan_us.push_back(scan * 1e6);
    engine_ms.push_back((plan + scan) * 1000.0);
  }
  std::vector<double> refresh_us;
  for (int i = 0; i < 20; ++i) {
    const double at = now_s();
    engine.refresh();
    refresh_us.push_back((now_s() - at) * 1e6);
  }
  const double lookups = static_cast<double>(cache.hits() + cache.misses());
  const double planned = static_cast<double>(engine.segments_scanned() +
                                             engine.segments_pruned());

  // The same sequence over HTTP against an idle collectord on the store.
  std::vector<double> http_us;
  {
    Collectord collectord;
    const bool started = collectord.start(
        options.bin_dir + "/gill-collectord",
        {"--archive-dir", store_dir, "--archive-compress",
         "--archive-cache-bytes", std::to_string(kCacheBytes)},
        store_dir + ".http.log");
    report.check("collectord starts (HTTP trace)", started);
    for (std::size_t i = 0; started && i < sequence.size(); ++i) {
      const double at = now_s();
      const auto response = harness::http_get(
          "127.0.0.1", collectord.http_port(), sequence[i]->target, 30000);
      const double e2e_ms = (now_s() - at) * 1000.0;
      if (!response || response->status != 200) continue;
      http_us.push_back((e2e_ms - engine_ms[i]) * 1000.0);
    }
    collectord.stop();
  }
  report.check("every traced query answered over HTTP",
               http_us.size() == sequence.size());

  // net::StreamHub::publish with one live subscriber, in process.
  double publish_ns = 0;
  {
    net::EventLoop loop;
    metrics::Registry registry;
    net::HttpEndpoint http(loop, &registry);
    net::StreamHub hub(http, {}, &registry);
    http.listen("127.0.0.1", 0);
    harness::StreamClient client;
    client.connect("127.0.0.1", http.port(), "/v1/stream");
    for (int i = 0; i < 1000 && hub.subscriber_count() == 0; ++i) {
      loop.run_once(1);
      client.pump();
    }
    report.check("in-process subscriber registered",
                 hub.subscriber_count() == 1);
    const auto& updates = inputs.rounds[0].paced.updates;
    double publish_s = 0;
    for (std::size_t offset = 0; offset < updates.size(); offset += 256) {
      const std::size_t end = std::min(offset + 256, updates.size());
      const double at = now_s();
      for (std::size_t i = offset; i < end; ++i) hub.publish(updates[i]);
      publish_s += now_s() - at;
      for (int spin = 0; spin < 1000 && hub.queue_bytes() > 0; ++spin) {
        loop.run_once(0);
        client.pump();
      }
    }
    publish_ns = publish_s * 1e9 / static_cast<double>(updates.size());
  }

  // A live phase without query clients for the stream plane's own gauges.
  LivePhase phase =
      run_live(options, inputs, 0, store_dir, /*queries=*/false, report, record);
  report.attempt(phase.paced.sent + sequence.size());
  report.fail(phase.stream_missing + (sequence.size() - http_us.size()));
  report.check("every paced update reached the subscriber",
               phase.ok && phase.stream_missing == 0);
  const double ticks = phase.load_s / 0.2;  // collectord's 200 ms control tick

  report.info("stream_p50_ms (no queries)",
              quantile(phase.stream_latency_ms, 0.5), "ms");
  report.info("stream_p99_ms (no queries)",
              quantile(phase.stream_latency_ms, 0.99), "ms");
  report.info("engine query ms p50", quantile(engine_ms, 0.5), "ms");
  report.metric("archive.plan_us", median(plan_us), "us");
  report.metric("archive.scan_us", median(scan_us), "us");
  report.metric("archive.refresh_us", median(refresh_us), "us");
  report.metric("archive.cache_hit_ratio",
                lookups > 0 ? static_cast<double>(cache.hits()) / lookups : 0,
                "ratio");
  report.metric("archive.prune_ratio",
                planned > 0 ? static_cast<double>(engine.segments_pruned()) /
                                  planned
                            : 0,
                "ratio");
  report.metric("net.http_us", median(http_us), "us");
  report.metric("net.stream_publish_ns", publish_ns, "ns");
  report.metric("collector.stream_drain_batch",
                ticks > 0 ? phase.drained / ticks : 0, "updates");
  report.metric("net.stream_queue_max_bytes", phase.queue_max_bytes, "bytes");
  report.metric("loadgen.late_ms_p99", quantile(phase.paced.late_ms, 0.99),
                "ms");
}

}  // namespace perfbench

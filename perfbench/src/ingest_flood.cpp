// ingest_flood: four dialed sessions flood a 2-shard gill-collectord with
// a fixed dual-stack corpus under flow control; the archive is on and
// compressed, graceful restart puts the RIB on the path, nobody
// subscribes to the stream and nothing queries.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <random>
#include <thread>

#include "archive/archive_writer.hpp"
#include "archive/segment.hpp"
#include "bgp/rib.hpp"
#include "checks.hpp"
#include "daemon/daemon.hpp"
#include "filters/filters.hpp"
#include "loadgen.hpp"
#include "mrt/mrt.hpp"
#include "parallel/thread_pool.hpp"
#include "sampling/gill_pipeline.hpp"
#include "wire/messages.hpp"
#include "workloads.hpp"
#include "world.hpp"

namespace perfbench {

namespace {

using namespace gill;

constexpr std::size_t kSessions = 4;
constexpr std::size_t kShards = 2;
/// Updates each session replays per round; 4 x 110k is a few seconds of
/// ingest.
constexpr std::size_t kPerSession = 110000;
/// Generator thread CPU share above which the generator, not the
/// collector, may be the bottleneck: the round is counted as failed.
constexpr double kSaturatedShare = 0.8;

struct IngestInputs {
  RefreshWorld world;
  std::vector<EncodedCorpus> corpora;  // one per session
  std::size_t total = 0;
};

/// Every session replays the whole dual-stack world stream (all 68 VPs'
/// updates, so the four sessions carry the same mix), each from its own
/// seeded starting point.
IngestInputs make_inputs(std::uint64_t seed) {
  IngestInputs inputs;
  inputs.world = make_refresh_world();
  UpdateStream stream = inputs.world.training;
  stream.append(inputs.world.next);
  const std::vector<Update> updates = dual_stack(stream, 0);
  std::mt19937_64 rng(seed);
  for (std::size_t session = 0; session < kSessions; ++session) {
    const std::size_t offset = rng() % updates.size();
    std::vector<Update> replay;
    replay.reserve(kPerSession);
    for (std::size_t i = 0; i < kPerSession; ++i) {
      replay.push_back(updates[(offset + i) % updates.size()]);
    }
    inputs.total += replay.size();
    inputs.corpora.push_back(encode_corpus(std::move(replay), false));
  }
  return inputs;
}

std::string label(const char* key, std::size_t value) {
  return std::string(key) + "=\"" + std::to_string(value) + "\"";
}

/// Time-stamped per-session stored counts, sampled from /v1/metrics.
struct StoredSample {
  double at_s = 0;
  std::vector<double> stored;  // per session (collector VP id = index)
};

struct Round {
  bool ok = false;
  double setup_s = 0;
  double ingest_ups = 0;
  double cpu_us = 0;
  double rss_mb = 0;
  double collector_util = 0;
  double loadgen_util = 0;
  double shard_skew = 0;
  double read_pauses = 0;
  IngestCounts counts;
  std::vector<double> latency_ms;
};

std::vector<std::string> collectord_flags(const std::string& archive_dir,
                                          const std::vector<PeerSession>& peers) {
  std::vector<std::string> flags = {"--ingest-shards", std::to_string(kShards),
                                    "--archive-dir", archive_dir,
                                    "--archive-compress"};
  for (std::size_t i = 0; i < peers.size(); ++i) {
    flags.push_back("--dial");
    flags.push_back("127.0.0.1:" + std::to_string(peers[i].port()) + ":" +
                    std::to_string(65001 + i));
  }
  return flags;
}

/// One round: start collectord, establish, flood the corpus, drain,
/// check, stop. Failures are recorded in `report`.
Round run_round(const Options& options, const IngestInputs& inputs,
                int index, Report& report, RunRecord& record) {
  Round round;
  const std::string tag = "round " + std::to_string(index) + ": ";
  const std::string archive_dir =
      options.work_dir + "/ingest-archive-" + std::to_string(index);
  std::filesystem::remove_all(archive_dir);
  std::filesystem::create_directories(archive_dir);

  const double setup_start = now_s();
  std::vector<PeerSession> peers(kSessions);
  for (auto& peer : peers) {
    if (!peer.listen()) {
      report.check(tag + "generator listens", false);
      return round;
    }
  }
  const auto flags = collectord_flags(archive_dir, peers);
  record.collectord_flags.clear();
  for (const auto& flag : flags) {
    record.collectord_flags += (record.collectord_flags.empty() ? "" : " ") +
                               (flag.rfind("127.0.0.1:", 0) == 0
                                    ? std::string("127.0.0.1:<port>:<as>")
                                    : flag == archive_dir ? "<dir>" : flag);
  }
  Collectord collectord;
  if (!report.check(tag + "collectord starts",
                    collectord.start(options.bin_dir + "/gill-collectord",
                                     flags, archive_dir + ".log"))) {
    return round;
  }
  std::vector<std::thread> handshakes;
  std::atomic<std::size_t> handshaken{0};
  for (std::size_t i = 0; i < kSessions; ++i) {
    handshakes.emplace_back([&, i] {
      if (peers[i].handshake(static_cast<std::uint32_t>(65001 + i), 30)) {
        ++handshaken;
      }
    });
  }
  for (auto& thread : handshakes) thread.join();
  const bool established =
      handshaken == kSessions &&
      wait_established(collectord.http_port(), kSessions, 30);
  round.setup_s = now_s() - setup_start;
  if (!report.check(tag + "4 sessions Established", established)) return round;

  // Placement: ShardedPlatform::dial assigns dialed sessions round-robin,
  // so each shard must own exactly two.
  const auto before = Scrape::fetch(collectord.http_port());
  std::vector<double> per_shard;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    per_shard.push_back(before ? before->sum("gill_collector_peers",
                                             label("shard", shard))
                               : -1);
  }
  const std::string placement = check_placement(per_shard, kSessions / kShards);
  if (!report.check(tag + "2 sessions per shard", placement.empty(),
                    placement)) {
    return round;
  }

  // The observer: stored counts per session every 20 ms. `samples` is the
  // scraper thread's until it is joined.
  std::vector<StoredSample> samples;
  std::atomic<bool> stop_scraper{false};
  std::atomic<bool> all_stored{false};
  const double total = static_cast<double>(inputs.total);
  std::thread scraper([&] {
    while (!stop_scraper.load()) {
      const auto scrape = Scrape::fetch(collectord.http_port());
      const double at = now_s();
      if (scrape) {
        StoredSample sample{at, {}};
        double sum = 0;
        for (std::size_t i = 0; i < kSessions; ++i) {
          sample.stored.push_back(scrape->sum(
              "gill_daemon_updates_stored_total", label("vp", i)));
          sum += sample.stored.back();
        }
        samples.push_back(std::move(sample));
        if (sum >= total) {
          all_stored = true;
          return;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  const double cpu_before = proc_cpu_s(collectord.pid());
  const double loadgen_cpu_before = process_cpu_s();
  std::vector<PeerSession*> session_ptrs;
  std::vector<const EncodedCorpus*> corpus_ptrs;
  for (std::size_t i = 0; i < kSessions; ++i) {
    session_ptrs.push_back(&peers[i]);
    corpus_ptrs.push_back(&inputs.corpora[i]);
  }
  const FloodResult sent = flood(session_ptrs, corpus_ptrs, 120);
  const double drain_deadline = now_s() + 60;
  while (!all_stored.load() && now_s() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop_scraper = true;
  scraper.join();
  const double cpu_after = proc_cpu_s(collectord.pid());
  const double loadgen_cpu = process_cpu_s() - loadgen_cpu_before;
  round.rss_mb = proc_status_mb(collectord.pid(), "VmHWM");
  report.check(tag + "generator wrote the whole corpus", sent.ok);
  if (!report.check(tag + "collector stored the whole corpus",
                    all_stored.load())) {
    collectord.stop();
    return round;
  }
  const double done_at = samples.back().at_s;
  const double wall = done_at - sent.start_s;
  round.ingest_ups = total / wall;
  round.cpu_us = (cpu_after - cpu_before) / total * 1e6;
  round.collector_util = (cpu_after - cpu_before) / wall;
  round.loadgen_util = loadgen_cpu / wall;
  const double generator_share = sent.cpu_s / (sent.end_s - sent.start_s);
  const bool saturated = generator_share > kSaturatedShare;
  report.check(tag + "generator not saturated", !saturated,
               "generator thread busy " + format_double(generator_share));

  // Wire-to-store latency: when message k was fully written vs. when the
  // collector's stored counter for its session first covered it.
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto& progress = sent.progress[i];
    const std::size_t n = inputs.corpora[i].size();
    std::size_t p = 0;
    std::size_t s = 0;
    for (std::size_t k = 0; k < n; k += 61) {
      while (p < progress.size() && progress[p].second < k + 1) ++p;
      while (s < samples.size() && samples[s].stored[i] < k + 1) ++s;
      if (p == progress.size() || s == samples.size()) break;
      round.latency_ms.push_back(
          std::max(0.0, samples[s].at_s - progress[p].first) * 1000.0);
    }
  }

  // Conservation, scraped after the drain.
  const auto after = Scrape::fetch(collectord.http_port());
  if (after) {
    round.counts.sent = total;
    round.counts.received = after->sum("gill_daemon_updates_received_total");
    round.counts.stored = after->sum("gill_daemon_updates_stored_total");
    round.counts.filtered = after->sum("gill_daemon_updates_filtered_total");
    round.counts.stale_refreshed = after->sum("gill_gr_stale_refreshed_total");
    round.counts.shed = after->sum("gill_overload_sheds_total");
    round.counts.decode_errors = after->sum("gill_daemon_decode_errors_total");
    round.read_pauses = after->sum("gill_overload_read_pauses_total");
    std::vector<double> mirrored;
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      mirrored.push_back(after->sum("gill_collector_mirrored_updates_total",
                                    label("shard", shard)));
    }
    const double mean = (mirrored[0] + mirrored[1]) / 2;
    round.shard_skew =
        mean > 0 ? *std::max_element(mirrored.begin(), mirrored.end()) / mean
                 : 0;
  }
  const std::string conservation = check_conservation(round.counts);
  report.check(tag + "conservation sent = stored + filtered + shed + "
                     "decode-rejected",
               after && conservation.empty(), conservation);

  // Stop: collectord seals the active segment; the manifest must hold
  // every stored update.
  const bool clean_exit = collectord.stop();
  report.check(tag + "collectord exits cleanly", clean_exit);
  double archived = 0;
  for (const auto& meta : archive::load_manifest(archive_dir)) {
    archived += static_cast<double>(meta.updates);
  }
  const std::string archive_problem = check_archive(archived, round.counts.stored);
  report.check(tag + "archive records = stored", archive_problem.empty(),
               archive_problem);
  std::filesystem::remove_all(archive_dir);
  round.ok = sent.ok && !saturated && conservation.empty() &&
             archive_problem.empty() && clean_exit;
  return round;
}

}  // namespace

void run_ingest_flood(const Options& options, Report& report,
                      RunRecord& record) {
  // The inputs are built twice and set-up reports the median build.
  std::vector<double> builds;
  IngestInputs inputs;
  for (int i = 0; i < 2; ++i) {
    const double start = now_s();
    inputs = make_inputs(options.seed);
    builds.push_back(now_s() - start);
  }
  const double input_s = median(builds);
  report.info("corpus_updates", static_cast<double>(inputs.total), "updates");
  report.info("inputs_s (world + encode)", input_s, "s");

  std::vector<double> setup, ups, cpu, rss, latency_p50, latency_p99;
  double measured = 0;
  for (int index = 0; measured < options.seconds || index < 2; ++index) {
    report.attempt(inputs.total);
    const Round round = run_round(options, inputs, index, report, record);
    if (!round.ok) {
      report.fail(inputs.total);
      if (index >= 3) break;
      continue;
    }
    measured += static_cast<double>(inputs.total) / round.ingest_ups;
    setup.push_back(round.setup_s);
    ups.push_back(round.ingest_ups);
    cpu.push_back(round.cpu_us);
    rss.push_back(round.rss_mb);
    latency_p50.push_back(quantile(round.latency_ms, 0.5));
    latency_p99.push_back(quantile(round.latency_ms, 0.99));
    report.note("round " + std::to_string(index) + ": " +
                format_double(round.ingest_ups) + " updates/s, " +
                format_double(round.cpu_us) + " us CPU/update, shard skew " +
                format_double(round.shard_skew) + ", collector CPU util " +
                format_double(round.collector_util) + ", loadgen CPU util " +
                format_double(round.loadgen_util));
  }
  if (ups.empty()) return;
  report.info("ingest_ups", median(ups), "updates/s");
  report.info("ingest_cpu_us", median(cpu), "us");
  report.info("collector_rss_mb", median(rss), "MiB");
  report.metric("setup_s", input_s + median(setup), "s");
  report.metric("throughput", median(ups), "1/s");
  report.metric("p50_ms", median(latency_p50), "ms");
  report.metric("p99_ms", median(latency_p99), "ms");
  report.metric("cpu_us", median(cpu), "us");
  report.metric("rss_mb", median(rss), "MiB");
}

void trace_ingest_layers(const Options& options, Report& report,
                         RunRecord& record) {
  const IngestInputs inputs = make_inputs(options.seed);
  constexpr Timestamp kNow = 1700000000;  // one archive window, as in a run
  std::vector<Update> updates;  // every session's corpus, stamped kNow
  for (const auto& corpus : inputs.corpora) {
    for (Update update : corpus.updates) {
      update.time = kNow;
      updates.push_back(std::move(update));
    }
  }
  const double n = static_cast<double>(updates.size());
  const auto per_update_ns = [n](double seconds) { return seconds * 1e9 / n; };

  // wire::decode over every encoded message.
  double at = now_s();
  std::size_t decoded = 0;
  for (const auto& corpus : inputs.corpora) {
    std::size_t offset = 0;
    for (const std::size_t end : corpus.ends) {
      std::size_t consumed = 0;
      if (wire::decode(std::span(corpus.bytes.data() + offset, end - offset),
                       consumed)) {
        ++decoded;
      }
      offset = end;
    }
  }
  const double decode_ns = per_update_ns(now_s() - at);

  // bgp::Rib::apply, one table per session.
  std::vector<bgp::Rib> ribs(kSessions);
  at = now_s();
  for (std::size_t i = 0, base = 0; i < kSessions; ++i) {
    const std::size_t count = inputs.corpora[i].size();
    for (std::size_t k = 0; k < count; ++k) ribs[i].apply(updates[base + k]);
    base += count;
  }
  const double rib_ns = per_update_ns(now_s() - at);

  // mrt::Writer::write_update (the per-shard in-memory store's encode).
  mrt::Writer writer;
  at = now_s();
  for (const Update& update : updates) writer.write_update(update);
  const double encode_ns = per_update_ns(now_s() - at);
  const double record_bytes =
      static_cast<double>(writer.buffer().size()) / n;

  // archive::SegmentWriter::store, then the seal of the window.
  const std::string archive_dir = options.work_dir + "/trace-archive";
  std::filesystem::remove_all(archive_dir);
  par::ThreadPool archive_pool(1);
  archive::SegmentWriter segments(
      {.directory = archive_dir, .compress = true, .pool = &archive_pool});
  segments.open();
  at = now_s();
  for (const Update& update : updates) segments.store(update);
  const double append_ns = per_update_ns(now_s() - at);
  at = now_s();
  segments.rotate_now();
  segments.wait_idle();
  const double seal_ms = (now_s() - at) * 1000.0;
  double raw = 0;
  double payload = 0;
  for (const auto& meta : segments.manifest()) {
    raw += static_cast<double>(meta.raw_bytes);
    payload += static_cast<double>(meta.payload_bytes);
  }
  segments.close();
  std::filesystem::remove_all(archive_dir);

  // filt::FilterTable::accept against the table refresh_window installs.
  par::ThreadPool analysis_pool(par::auto_thread_count());
  const auto refreshed = sample::run_gill_pipeline(
      inputs.world.rib, inputs.world.training, {}, sample::GillConfig{},
      {&analysis_pool, nullptr});
  std::size_t accepted = 0;
  at = now_s();
  for (const auto& corpus : inputs.corpora) {
    for (const Update& update : corpus.updates) {
      accepted += refreshed.filters.accept(update) ? 1 : 0;
    }
  }
  const double accept_ns = per_update_ns(now_s() - at);

  // daemon::BgpDaemon::poll over an in-memory transport, wired as the
  // collector wires it: empty filter table, in-memory store, archive tee,
  // mirror + stream outbox, graceful restart negotiated.
  const std::string tee_dir = options.work_dir + "/trace-tee";
  std::filesystem::remove_all(tee_dir);
  archive::SegmentWriter tee(
      {.directory = tee_dir, .compress = true, .pool = &archive_pool});
  tee.open();
  const filt::FilterTable no_filters;
  metrics::Registry registry;
  double poll_s = 0;
  std::size_t stored = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    daemon::Transport transport;
    daemon::MrtStore store;
    daemon::BgpDaemon session(static_cast<bgp::VpId>(i), 65000, transport,
                              &no_filters, &store, &registry);
    session.set_graceful_restart({});
    session.set_archive(&tee);
    UpdateStream mirror;
    std::vector<Update> outbox;
    session.set_mirror([&](const Update& update) {
      mirror.push(update);
      outbox.push_back(update);
    });
    daemon::FakePeer peer(static_cast<bgp::AsNumber>(65001 + i), transport);
    peer.enable_graceful_restart();
    session.start(kNow);
    for (int step = 0; step < 16 &&
                       session.state() != daemon::SessionState::kEstablished;
         ++step) {
      peer.poll();
      session.poll(kNow);
    }
    peer.poll();
    const EncodedCorpus& corpus = inputs.corpora[i];
    constexpr std::size_t kChunk = 1 << 20;  // about one tick's read budget
    for (std::size_t offset = 0; offset < corpus.bytes.size();
         offset += kChunk) {
      const std::size_t size = std::min(kChunk, corpus.bytes.size() - offset);
      transport.write_to_daemon(std::span(corpus.bytes.data() + offset, size));
      at = now_s();
      session.poll(kNow);
      poll_s += now_s() - at;
    }
    stored += store.stored();
  }
  tee.close();
  std::filesystem::remove_all(tee_dir);
  const double poll_ns = per_update_ns(poll_s);
  report.check("traced replay decodes every message", decoded == updates.size());
  report.check("traced daemons store every update", stored == updates.size(),
               std::to_string(stored) + " of " + std::to_string(updates.size()));
  report.attempt(updates.size());
  if (stored != updates.size()) report.fail(updates.size() - stored);

  // One end-to-end round for the figures the layers add up to.
  report.attempt(inputs.total);
  const Round round = run_round(options, inputs, 0, report, record);
  if (!round.ok) report.fail(inputs.total);
  report.info("ingest_cpu_us (e2e round)", round.cpu_us, "us");
  report.info("ingest_ups (e2e round)", round.ingest_ups, "updates/s");

  report.metric("wire.decode_ns", decode_ns, "ns");
  report.metric("daemon.poll_ns", poll_ns, "ns");
  report.metric("daemon.self_ns",
                poll_ns - decode_ns - rib_ns - encode_ns - append_ns, "ns");
  report.metric("bgp.rib_apply_ns", rib_ns, "ns");
  report.metric("mrt.encode_ns", encode_ns, "ns");
  report.metric("mrt.record_bytes", record_bytes, "bytes");
  report.metric("archive.append_ns", append_ns, "ns");
  report.metric("archive.seal_ms", seal_ms, "ms");
  report.metric("archive.compress_ratio", payload > 0 ? raw / payload : 0,
                "ratio");
  report.metric("filters.accept_ns", accept_ns, "ns");
  report.metric("filters.drop_ratio", 1.0 - static_cast<double>(accepted) / n,
                "ratio");
  report.metric("ingest.unattributed_ns", round.cpu_us * 1000.0 - poll_ns,
                "ns");
  report.metric("daemon.updates_stored", round.counts.stored, "count");
  report.metric("daemon.decode_errors", round.counts.decode_errors, "count");
  report.metric("overload.read_pauses", round.read_pauses, "count");
  report.metric("collector.shard_skew", round.shard_skew, "ratio");
  report.metric("collector.cpu_util", round.collector_util, "cores");
  report.metric("loadgen.cpu_util", round.loadgen_util, "cores");
}

}  // namespace perfbench

// perfbench: the OASIS end-to-end and per-layer benchmark harness.
//
// Three workloads (README.md says why each exists):
//   motif_mmap    ProClass-shaped protein motifs at E=1000 against a
//                 SWISS-PROT-shaped database, one closed-loop client, mmap
//   motif_pool25  the same inputs through a buffer pool of 1/4 of the packed
//                 index, one closed-loop client
//   reads_live    32-nt DNA reads at E=0.001 against a soft-masked 4-volume
//                 set served by an in-process server::Server, open loop, with
//                 appends and compactions at fixed operation indices
//
//   oasis_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --workdir DIR [--spans FILE] [--smoke] [--rate R]
//
// --smoke shrinks every input for the self-tests; --rate overrides the
// open-loop rate (the self-tests use it to overload the generator).
//
// Every input is generated from --seed before anything is timed. The
// program is driven only through api::Engine, api::ResultCursor,
// server::Server, server::DaemonClient, Engine::CollectStats and
// BufferPool::num_pinned (plus the public wire framing, to read the kDone
// terminator the client hides). The last stdout line is one JSON object:
// correctness, operation counts, end-to-end and per-layer metrics, the run
// fingerprint, the per-layer time shares and every gate violation. The exit
// status is non-zero when any gate failed.

#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "core/report.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "workload/workload.h"

namespace oasis::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t t) {
  std::this_thread::sleep_until(Clock::time_point(
      std::chrono::duration_cast<Clock::duration>(std::chrono::nanoseconds(t))));
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// --- Statistics ---------------------------------------------------------------

/// Linear-interpolated quantile; NaN for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// FNV-1a over 64-bit words and strings: the result digest.
struct Digest {
  uint64_t h = 1469598103934665603ull;
  void Add(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void Add(std::string_view s) {
    for (char ch : s) {
      h ^= static_cast<uint8_t>(ch);
      h *= 1099511628211ull;
    }
    Add(s.size());
  }
};

// --- Spans --------------------------------------------------------------------

enum SpanName : uint8_t {
  kRequest,
  kApiCreate,
  kWarmup,
  kApiSearch,
  kCursorNext,
  kClientQuery,
  kClientFirstFrame,
  kClientPing,
  kApiAppend,
  kApiCompact,
  kCollectStats,
  kNumSpanNames,
};

constexpr const char* kSpanNames[kNumSpanNames] = {
    "request",           "api.create",  "warmup",
    "api.search",        "cursor.next", "client.query",
    "client.first_frame", "client.ping", "api.append",
    "api.compact",       "engine.collect_stats"};

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;
  int32_t parent = -1;  ///< index in the same log; -1 = root
  SpanName name = kRequest;
  bool first = false;  ///< marks a request's first cursor.next
};

/// One thread's spans, kept in memory and written out at exit. A disabled
/// log records nothing, so untraced runs pay one branch per boundary.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  int32_t Add(SpanName name, uint64_t request, int32_t parent, int64_t start,
              int64_t end = 0, bool first = false) {
    if (!on_) return -1;
    spans_.push_back({start, end, request, parent, name, first});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id, int64_t end) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = end;
  }
  void Append(const SpanLog& other) {
    const int32_t base = static_cast<int32_t>(spans_.size());
    for (Span span : other.spans_) {
      if (span.parent >= 0) span.parent += base;
      spans_.push_back(span);
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// --- Process probes -----------------------------------------------------------

struct ProcSample {
  uint64_t rchar = 0;   ///< /proc/self/io bytes read by syscalls
  uint64_t syscr = 0;   ///< /proc/self/io read syscalls
  uint64_t minflt = 0;  ///< getrusage minor faults
  double cpu_s = 0;     ///< user + system CPU seconds
};

ProcSample SampleProc() {
  ProcSample s;
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "rchar:") s.rchar = value;
    if (key == "syscr:") s.syscr = value;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.minflt = static_cast<uint64_t>(ru.ru_minflt);
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  return s;
}

/// VmHWM in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::nan("");
}

/// Drops the set-up's peak from VmHWM so the timed phase reports its own.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// --- Configuration ------------------------------------------------------------

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string workdir;
  std::string spans_path;

  bool dna = false;
  api::IoMode io_mode = api::IoMode::kMmap;
  uint64_t db_residues = 0;
  uint32_t clients = 1;      ///< closed-loop clients, or open-loop senders
  uint32_t num_queries = 0;  ///< length of the seed-determined query list
  uint32_t warmup = 0;       ///< warm-up pass: queries [0, warmup)
  uint32_t setups = 3;       ///< set-up repetitions (setup_s is the median)
  uint32_t ref_queries = 0;  ///< mmap reference / daemon probe queries
  double evalue = 1000;
  double pool_fraction = 0;  ///< pool bytes / packed index bytes (pooled)
  uint32_t volumes = 1;
  double rate = 0;            ///< open-loop requests per second (--rate)
  uint32_t appends = 0;       ///< appended batches (at fixed op indices)
  uint32_t compact_every = 2; ///< Compact() after every this many appends
  uint64_t batch_residues = 0;
};

bool Configure(Config* c) {
  const bool smoke = c->smoke;
  if (c->workload == "motif_mmap" || c->workload == "motif_pool25") {
    const bool pooled = c->workload == "motif_pool25";
    c->io_mode = pooled ? api::IoMode::kPooled : api::IoMode::kMmap;
    c->pool_fraction = pooled ? 0.25 : 0;
    c->db_residues = smoke ? 60000 : 300000;
    c->num_queries = smoke ? 512 : 8192;  // a power of two: see Stratify
    c->warmup = smoke ? 8 : 160;
    c->ref_queries = smoke ? 8 : 60;
    c->evalue = 1000;
    c->appends = 2;
    c->batch_residues = smoke ? 2000 : 8000;
  } else if (c->workload == "reads_live") {
    c->dna = true;
    c->io_mode = api::IoMode::kPooled;
    c->pool_fraction = 2.0;
    c->clients = 2;
    c->db_residues = smoke ? 60000 : 100000;
    c->num_queries = smoke ? 40 : 300;
    c->warmup = smoke ? 4 : 80;
    c->ref_queries = smoke ? 8 : 60;
    c->evalue = 0.001;
    c->volumes = 4;
    if (c->rate == 0) c->rate = 45;
    c->appends = 8;
    c->compact_every = 2;
    c->batch_residues = c->db_residues / 64;
  } else {
    return false;
  }
  if (smoke) c->setups = 1;
  return true;
}

// --- Inputs -------------------------------------------------------------------

/// Reorders `queries` (a power-of-two count) so that every prefix spreads
/// evenly over the length distribution: sort by length, then visit the
/// sorted list in bit-reversed index order. A run that completes n queries
/// then measures a length-stratified sample, which steadies its p99 across
/// seeds; which queries fall in each stratum still varies with the seed.
void Stratify(std::vector<std::vector<seq::Symbol>>* queries) {
  const size_t n = queries->size();
  std::vector<size_t> by_length(n);
  for (size_t i = 0; i < n; ++i) by_length[i] = i;
  std::stable_sort(by_length.begin(), by_length.end(), [&](size_t a, size_t b) {
    return (*queries)[a].size() < (*queries)[b].size();
  });
  unsigned bits = 0;
  while ((size_t{1} << bits) < n) ++bits;
  std::vector<std::vector<seq::Symbol>> out;
  out.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    size_t r = 0;
    for (unsigned b = 0; b < bits; ++b) r = (r << 1) | ((k >> b) & 1);
    out.push_back(std::move((*queries)[by_length[r]]));
  }
  *queries = std::move(out);
}

struct Inputs {
  std::optional<seq::SequenceDatabase> db;
  std::vector<std::vector<seq::Symbol>> queries;
  std::vector<std::string> query_text;  ///< wire form of each query
  std::vector<std::vector<seq::Sequence>> batches;  ///< appended in order
  uint64_t digest = 0;
};

util::StatusOr<Inputs> Generate(const Config& c) {
  Inputs in;
  const uint64_t base = c.seed * 1000003ull;
  if (c.dna) {
    workload::DnaDatabaseOptions o;
    o.target_residues = c.db_residues;
    o.seed = base + 1;
    OASIS_ASSIGN_OR_RETURN(seq::SequenceDatabase db,
                           workload::GenerateDnaDatabase(o));
    workload::QualityDegradedReadOptions r;
    r.num_reads = c.num_queries;
    r.read_length = 32;
    r.seed = base + 2;
    OASIS_ASSIGN_OR_RETURN(std::vector<seq::Sequence> reads,
                           workload::GenerateQualityDegradedReads(db, r));
    for (seq::Sequence& read : reads) in.queries.push_back(read.symbols());
    in.db.emplace(std::move(db));
  } else {
    workload::ProteinDatabaseOptions o;
    o.target_residues = c.db_residues;
    o.seed = base + 1;
    OASIS_ASSIGN_OR_RETURN(seq::SequenceDatabase db,
                           workload::GenerateProteinDatabase(o));
    workload::MotifQueryOptions q;
    q.num_queries = c.num_queries;
    q.seed = base + 2;
    OASIS_ASSIGN_OR_RETURN(
        std::vector<workload::MotifQuery> motifs,
        workload::GenerateMotifQueries(db, score::SubstitutionMatrix::Pam30(), q));
    for (workload::MotifQuery& m : motifs) in.queries.push_back(std::move(m.symbols));
    Stratify(&in.queries);
    in.db.emplace(std::move(db));
  }
  for (uint32_t k = 0; k < c.appends; ++k) {
    auto generate = [&]() -> util::StatusOr<seq::SequenceDatabase> {
      if (c.dna) {
        workload::DnaDatabaseOptions o;
        o.target_residues = c.batch_residues;
        o.num_sequences = 2;
        o.seed = base + 100 + k;
        return workload::GenerateDnaDatabase(o);
      }
      workload::ProteinDatabaseOptions o;
      o.target_residues = c.batch_residues;
      o.seed = base + 100 + k;
      return workload::GenerateProteinDatabase(o);
    };
    OASIS_ASSIGN_OR_RETURN(seq::SequenceDatabase batch, generate());
    std::vector<seq::Sequence> renamed;
    for (const seq::Sequence& s : batch.sequences()) {
      renamed.emplace_back("APPEND" + std::to_string(k) + "_" +
                               std::to_string(renamed.size()),
                           s.description(), s.symbols());
    }
    in.batches.push_back(std::move(renamed));
  }

  Digest d;
  for (seq::Symbol s : in.db->symbols()) d.Add(s);
  for (const auto& q : in.queries) {
    in.query_text.push_back(in.db->alphabet().Decode(q));
    d.Add(in.query_text.back());
  }
  for (const auto& batch : in.batches) {
    for (const seq::Sequence& s : batch) {
      d.Add(s.id());
      for (seq::Symbol x : s.symbols()) d.Add(x);
    }
  }
  in.digest = d.h;
  return in;
}

// --- One local query ----------------------------------------------------------

struct QueryRecord {
  uint32_t query = 0;        ///< index into the query list
  int64_t start_ns = 0;      ///< Search() call, or the open-loop due time
  int64_t sent_ns = 0;       ///< open loop: when the request went out
  int64_t first_ns = -1;     ///< first result / hit frame; -1 = none
  int64_t end_ns = 0;        ///< stream end
  int64_t search_ns = 0;     ///< duration of the Search() call
  int64_t first_next_ns = 0; ///< duration of the first Next()
  uint64_t results = 0;
  uint64_t digest = 0;
  uint32_t volumes = 0;
  bool ok = false;
  core::OasisStats stats;

  double latency_ms() const { return Ms(end_ns - start_ns); }
  double next_ms() const { return Ms(end_ns - start_ns - search_ns); }
};

/// Runs one search to stream end. With `lines`, also renders each result
/// exactly as the daemon does. Checks that scores never increase.
QueryRecord RunLocal(const api::Engine& engine, const api::SearchRequest& request,
                     uint32_t query, uint64_t request_id, SpanLog* log,
                     std::vector<std::string>* lines) {
  QueryRecord r;
  r.query = query;
  r.volumes = static_cast<uint32_t>(engine.num_volumes());
  r.start_ns = NowNs();
  const int32_t root = log->Add(kRequest, request_id, -1, r.start_ns);
  auto cursor = engine.Search(request);
  int64_t prev = NowNs();
  r.search_ns = prev - r.start_ns;
  log->Add(kApiSearch, request_id, root, r.start_ns, prev);
  if (cursor.ok()) {
    Digest d;
    score::ScoreT last = std::numeric_limits<score::ScoreT>::max();
    bool ordered = true;
    bool first_call = true;
    while (true) {
      auto next = cursor->Next();
      const int64_t now = NowNs();
      log->Add(kCursorNext, request_id, root, prev, now, first_call);
      if (first_call) r.first_next_ns = now - prev;
      first_call = false;
      if (!next.ok()) break;
      if (!next->has_value()) {
        r.ok = ordered;
        break;
      }
      const core::OasisResult& res = **next;
      if (r.first_ns < 0) r.first_ns = now;
      if (res.score > last) ordered = false;
      last = res.score;
      d.Add(res.sequence_id);
      d.Add(static_cast<uint64_t>(res.score));
      d.Add(res.query_end);
      d.Add(res.target_end);
      if (lines != nullptr) {
        lines->push_back(core::FormatResult(
            res, engine.SequenceName(res.sequence_id), res.evalue));
      }
      ++r.results;
      prev = NowNs();
    }
    d.Add(r.results);
    r.digest = d.h;
    r.stats = cursor->stats();
  }
  r.end_ns = NowNs();
  log->End(root, r.end_ns);
  return r;
}

// --- Closed loop --------------------------------------------------------------

struct Phase {
  std::vector<QueryRecord> records;  ///< every client's, in start order
  SpanLog spans{false};
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double seconds() const { return Ms(end_ns - start_ns) / 1e3; }
};

/// `clients` threads take query indices 0, 1, 2, ... from a shared counter
/// until `limit` indices are taken or `deadline_ns` passes, each running its
/// query to stream end before taking the next. `poll` runs on the calling
/// thread (about every millisecond) until all clients finish.
Phase RunClosedLoop(const api::Engine& engine,
                    const std::vector<api::SearchRequest>& requests,
                    uint32_t clients, uint64_t limit, int64_t deadline_ns,
                    bool trace, const std::function<void()>& poll) {
  Phase phase;
  std::atomic<uint64_t> next{0};
  std::atomic<uint32_t> finished{0};
  std::vector<std::vector<QueryRecord>> per_client(clients);
  std::vector<SpanLog> logs(clients, SpanLog(trace));
  std::vector<std::thread> threads;
  phase.start_ns = NowNs();
  for (uint32_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      while (NowNs() < deadline_ns) {
        const uint64_t i = next.fetch_add(1);
        if (i >= limit) break;
        const uint32_t q = static_cast<uint32_t>(i % requests.size());
        per_client[t].push_back(
            RunLocal(engine, requests[q], q, i, &logs[t], nullptr));
      }
      finished.fetch_add(1);
    });
  }
  while (finished.load() < clients) {
    if (poll) poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread& t : threads) t.join();
  phase.end_ns = NowNs();
  phase.spans = SpanLog(trace);
  for (uint32_t t = 0; t < clients; ++t) {
    phase.records.insert(phase.records.end(), per_client[t].begin(),
                         per_client[t].end());
    phase.spans.Append(logs[t]);
  }
  std::sort(phase.records.begin(), phase.records.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return phase;
}

// --- Report -------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, std::string> fingerprint;
  std::map<std::string, double> shares;
  std::map<std::string, double> span_self_ms;
  std::vector<std::string> violations;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Fail(const std::string& what) {
    std::fprintf(stderr, "GATE: %s\n", what.c_str());
    violations.push_back(what);
  }
};

/// Counts `records` as attempted operations and their failures.
void CountOps(const std::vector<QueryRecord>& records, Report* rep) {
  for (const QueryRecord& r : records) {
    ++rep->attempted;
    if (!r.ok) ++rep->failed;
  }
}

/// Every reference digest a record carries must match: identical across
/// passes, clients and (for the reference pass) I/O modes.
void CheckDigests(const std::vector<QueryRecord>& records,
                  std::vector<std::optional<uint64_t>>* ref, const char* pass,
                  Report* rep) {
  uint64_t mismatches = 0;
  for (const QueryRecord& r : records) {
    std::optional<uint64_t>& slot = (*ref)[r.query];
    if (!slot.has_value()) {
      slot = r.digest;
    } else if (*slot != r.digest) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    rep->failed += mismatches;
    rep->Fail(std::to_string(mismatches) + " result digests differ in the " +
              pass + " pass");
  }
}

void EndToEnd(const std::vector<QueryRecord>& records, double seconds,
              Report* rep) {
  std::vector<double> latency;
  std::vector<double> ttfh;
  for (const QueryRecord& r : records) {
    latency.push_back(r.latency_ms());
    if (r.first_ns >= 0) ttfh.push_back(Ms(r.first_ns - r.start_ns));
  }
  rep->e2e["qps"] = {static_cast<double>(records.size()) / seconds, "1/s"};
  rep->e2e["latency_p50_ms"] = {Quantile(latency, 0.5), "ms"};
  rep->e2e["latency_p99_ms"] = {Quantile(latency, 0.99), "ms"};
  rep->e2e["ttfh_p50_ms"] = {Quantile(ttfh, 0.5), "ms"};
  rep->e2e["ttfh_p99_ms"] = {Quantile(ttfh, 0.99), "ms"};
  rep->layer["harness.ttfh_samples"] = {static_cast<double>(ttfh.size()), "count"};
  std::fprintf(stderr, "timed: %zu ops in %.2f s, %zu with hits\n",
               records.size(), seconds, ttfh.size());
  if (records.size() < 1000 || ttfh.size() < 1000) {
    std::fprintf(stderr,
                 "note: fewer than 1000 samples; p99 has under ten beyond it\n");
  }
}

// --- Engine set-up ------------------------------------------------------------

uint64_t PackedIndexBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name == suffix::PackedTreeFiles::kSymbols ||
        name == suffix::PackedTreeFiles::kInternal ||
        name == suffix::PackedTreeFiles::kLeaves ||
        name == suffix::PackedTreeFiles::kMeta) {
      total += entry.file_size();
    }
  }
  return total;
}

struct Served {
  std::unique_ptr<api::Engine> engine;
  std::string index_dir;
  std::vector<double> total_s, build_s, warm_s;
  uint64_t packed_bytes = 0;
  uint64_t residues = 0;
  uint64_t build_passes = 0;
  uint64_t indexed = 0;
  uint64_t masked = 0;
  SpanLog spans{false};
};

api::EngineOptions BuildOptions(const Config& c, const seq::SequenceDatabase& db) {
  api::EngineOptions o;
  o.io_mode = api::IoMode::kMmap;
  o.build_threads = 2;
  o.compact_trigger_volumes = 0;
  if (c.dna) {
    o.alphabet = seq::AlphabetKind::kDna;
    o.mask_mode = api::MaskMode::kSoft;
    // Slightly over a quarter, so the slicer closes exactly four volumes.
    o.volume_size_bytes = db.num_residues() / c.volumes +
                          db.num_residues() / (c.volumes * 20) + 1;
  } else {
    o.volume_size_bytes = 1ull << 40;  // one volume, manifest layout
  }
  return o;
}

api::EngineOptions ServeOptions(const Config& c, uint64_t packed_bytes) {
  api::EngineOptions o;
  o.io_mode = c.io_mode;
  o.compact_trigger_volumes = 0;
  if (c.io_mode == api::IoMode::kPooled) {
    o.pool_bytes = static_cast<uint64_t>(static_cast<double>(packed_bytes) *
                                         c.pool_fraction);
  }
  // Compact() merges volumes below this size: the appended batches, never
  // the base volumes.
  o.volume_size_bytes = c.batch_residues * 4;
  return o;
}

/// Builds, reopens and warms the index `c.setups` times (each in a fresh
/// directory) and keeps the last engine. The warm-up pass sets the
/// reference digest of queries [0, warmup); every repetition must agree.
util::StatusOr<Served> SetUp(const Config& c, const Inputs& in,
                             const std::vector<api::SearchRequest>& requests,
                             std::vector<std::optional<uint64_t>>* ref,
                             Report* rep) {
  Served s;
  s.spans = SpanLog(c.trace);
  const api::EngineOptions build = BuildOptions(c, *in.db);
  for (uint32_t k = 0; k < c.setups; ++k) {
    s.engine.reset();
    s.index_dir = c.workdir + "/index" + std::to_string(k);
    fs::remove_all(s.index_dir);
    if (k > 0) fs::remove_all(c.workdir + "/index" + std::to_string(k - 1));
    seq::SequenceDatabase copy = *in.db;
    const int64_t t0 = NowNs();
    OASIS_ASSIGN_OR_RETURN(
        std::unique_ptr<api::Engine> created,
        api::Engine::CreateFromDatabase(std::move(copy), s.index_dir, build));
    const int64_t t1 = NowNs();
    s.spans.Add(kApiCreate, k, -1, t0, t1);
    const util::EngineStatsSnapshot stats = created->CollectStats();
    s.residues = created->num_residues();
    created.reset();
    s.packed_bytes = PackedIndexBytes(s.index_dir);
    s.build_passes = s.indexed = s.masked = 0;
    for (const util::VolumeStatsRow& row : stats.volumes) {
      s.build_passes += row.passes;
      s.indexed += row.indexed_suffixes;
      s.masked += row.masked_suffixes;
    }
    if (c.dna && stats.volumes.size() != c.volumes) {
      return util::Status::Internal("expected " + std::to_string(c.volumes) +
                                    " volumes, built " +
                                    std::to_string(stats.volumes.size()));
    }

    const int64_t t2 = NowNs();
    OASIS_ASSIGN_OR_RETURN(s.engine,
                           api::Engine::Open(s.index_dir,
                                             ServeOptions(c, s.packed_bytes)));
    const int64_t t3 = NowNs();
    std::vector<QueryRecord> warm;
    for (uint32_t i = 0; i < c.warmup; ++i) {
      SpanLog off(false);
      warm.push_back(RunLocal(*s.engine, requests[i], i, i, &off, nullptr));
    }
    const int64_t t4 = NowNs();
    s.spans.Add(kWarmup, k, -1, t3, t4);
    CountOps(warm, rep);
    CheckDigests(warm, ref, "warm-up", rep);
    s.build_s.push_back(Ms(t1 - t0) / 1e3);
    s.warm_s.push_back(Ms(t4 - t3) / 1e3);
    s.total_s.push_back(Ms(t1 - t0 + t4 - t2) / 1e3);
    std::fprintf(stderr, "setup %u: create %.3f s, open %.3f s, warm %.3f s\n",
                 k, Ms(t1 - t0) / 1e3, Ms(t3 - t2) / 1e3, Ms(t4 - t3) / 1e3);
  }
  return s;
}

// --- Daemon access ------------------------------------------------------------

/// One raw loopback connection speaking the public wire framing, used where
/// the kDone terminator's own hit count must be read.
class RawConnection {
 public:
  RawConnection() = default;
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  util::Status Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return util::Status::IOError("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return util::Status::IOError("connect failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return util::Status::OK();
  }

  /// Streams one query; fills the hit lines and the kDone count.
  util::Status Query(const server::WireRequest& request,
                     std::vector<std::string>* lines, uint64_t* done_hits) {
    OASIS_RETURN_NOT_OK(
        server::SendFrame(fd_, server::FrameType::kQuery, request.Encode()));
    while (true) {
      server::Frame frame;
      OASIS_RETURN_NOT_OK(server::RecvFrame(fd_, &buf_, &frame));
      if (frame.type == server::FrameType::kHit) {
        lines->push_back(std::move(frame.payload));
      } else if (frame.type == server::FrameType::kDone) {
        OASIS_ASSIGN_OR_RETURN(server::DoneInfo done,
                               server::ParseDone(frame.payload));
        *done_hits = done.hits;
        return util::Status::OK();
      } else if (frame.type == server::FrameType::kError) {
        return server::DecodeError(frame.payload);
      } else {
        return util::Status::Corruption("unexpected frame in a stream");
      }
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

server::WireRequest MakeWire(const Config& c, const std::string& text) {
  server::WireRequest w;
  w.query = text;
  w.evalue = c.evalue;
  w.no_cache = true;
  return w;
}

struct DaemonCheck {
  std::vector<QueryRecord> local;     ///< local runs of the checked queries
  std::vector<double> overhead_ms;    ///< daemon minus local, per query
  std::vector<double> frames;         ///< frames per daemon query
};

/// For queries [0, n): runs the query locally and through the daemon, one
/// at a time on a quiet server, and requires byte-identical hit lines and a
/// kDone count equal to the lines received.
DaemonCheck CheckDaemon(const Config& c, const api::Engine& engine,
                        uint16_t port, const Inputs& in,
                        const std::vector<api::SearchRequest>& requests,
                        uint32_t n, Report* rep) {
  DaemonCheck out;
  RawConnection conn;
  util::Status st = conn.Connect(port);
  if (!st.ok()) {
    rep->Fail("daemon check cannot connect: " + st.ToString());
    return out;
  }
  uint64_t bad = 0;
  for (uint32_t i = 0; i < n; ++i) {
    std::vector<std::string> local_lines;
    SpanLog off(false);
    QueryRecord local = RunLocal(engine, requests[i], i, i, &off, &local_lines);
    std::vector<std::string> daemon_lines;
    uint64_t done_hits = 0;
    const int64_t t0 = NowNs();
    st = conn.Query(MakeWire(c, in.query_text[i]), &daemon_lines, &done_hits);
    const int64_t t1 = NowNs();
    const bool ok = st.ok() && local.ok && done_hits == daemon_lines.size() &&
                    daemon_lines == local_lines;
    ++rep->attempted;
    if (!ok) {
      ++rep->failed;
      ++bad;
    }
    out.overhead_ms.push_back(Ms(t1 - t0) - local.latency_ms());
    out.frames.push_back(static_cast<double>(daemon_lines.size() + 1));
    out.local.push_back(local);
  }
  if (bad > 0) {
    rep->Fail(std::to_string(bad) + " of " + std::to_string(n) +
              " daemon streams differ from local search (or kDone count)");
  }
  return out;
}

// --- Traced measurements ------------------------------------------------------

struct PoolCounters {
  std::map<std::string, std::pair<uint64_t, uint64_t>> by_kind;  ///< req, hit
  uint64_t requests = 0;
  uint64_t hits = 0;
};

PoolCounters ReadPool(const api::Engine& engine, SpanLog* log) {
  const int64_t t0 = NowNs();
  const util::EngineStatsSnapshot snap = engine.CollectStats();
  log->Add(kCollectStats, 0, -1, t0, NowNs());
  PoolCounters p;
  if (!snap.pooled) return p;
  for (const util::SegmentStatsRow& row : snap.segments) {
    for (const char* kind : {"internal", "leaves", "symbols"}) {
      if (row.name.find(kind) != std::string::npos) {
        p.by_kind[kind].first += row.requests;
        p.by_kind[kind].second += row.hits;
      }
    }
    p.requests += row.requests;
    p.hits += row.hits;
  }
  return p;
}

/// Self time of each span name: its duration minus its children's.
std::map<std::string, double> SelfTimes(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  std::vector<int64_t> child(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    self[kSpanNames[spans[i].name]] +=
        Ms(spans[i].end_ns - spans[i].start_ns - child[i]);
  }
  return self;
}

/// Per request, the child spans must cover its end-to-end time within 5 %.
void CheckSpanCoverage(const SpanLog& log, Report* rep) {
  const std::vector<Span>& spans = log.spans();
  std::vector<int64_t> child(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  uint64_t roots = 0, short_roots = 0;
  int64_t total = 0, covered = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != kRequest) continue;
    const int64_t dur = spans[i].end_ns - spans[i].start_ns;
    ++roots;
    total += dur;
    covered += child[i];
    if (static_cast<double>(child[i]) < 0.95 * static_cast<double>(dur)) ++short_roots;
  }
  const double coverage = Ratio(static_cast<double>(covered), static_cast<double>(total));
  std::fprintf(stderr, "span coverage: %.4f overall, %llu of %llu requests under 95%%\n",
               coverage, static_cast<unsigned long long>(short_roots),
               static_cast<unsigned long long>(roots));
  rep->layer["tracing.span_coverage"] = {coverage, "ratio"};
  if (coverage < 0.95 || short_roots * 100 > roots) {
    rep->Fail("spans cover under 95% of request time");
  }
}

void WriteSpans(const std::string& path, const SpanLog& log) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << "name\tstart_ns\tend_ns\tparent\trequest\tfirst\n";
  for (const Span& s : log.spans()) {
    out << kSpanNames[s.name] << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
        << s.parent << '\t' << s.request << '\t' << (s.first ? 1 : 0) << '\n';
  }
}

struct Traced {
  Phase replay;
  PoolCounters before, after;
  ProcSample proc_before, proc_after;
  uint32_t pinned_max = 0;
  std::vector<double> ping_us;
};

/// Replays queries [0, n) with spans on, `clients` at a time, sampling the
/// pool's pinned frames (and, with a daemon, pinging it) from this thread.
Traced TracedReplay(const api::Engine& engine,
                    const std::vector<api::SearchRequest>& requests,
                    uint32_t clients, uint64_t n, server::DaemonClient* pinger,
                    SpanLog* main_log) {
  Traced t;
  t.before = ReadPool(engine, main_log);
  int64_t next_ping = 0;
  auto poll = [&] {
    if (engine.uses_pool()) t.pinned_max = std::max(t.pinned_max, engine.pool().num_pinned());
    const int64_t now = NowNs();
    if (pinger != nullptr && now >= next_ping) {
      next_ping = now + 20'000'000;
      if (pinger->Ping().ok()) {
        const int64_t end = NowNs();
        main_log->Add(kClientPing, 0, -1, now, end);
        t.ping_us.push_back(static_cast<double>(end - now) / 1e3);
      }
    }
  };
  t.proc_before = SampleProc();
  t.replay = RunClosedLoop(engine, requests, clients, n,
                           std::numeric_limits<int64_t>::max(), true, poll);
  t.proc_after = SampleProc();
  t.after = ReadPool(engine, main_log);
  return t;
}

/// Opens an mmap engine over the same index and runs queries [0, n) on it:
/// the I/O-mode parity check and the stall baseline.
std::vector<QueryRecord> MmapReference(const std::string& dir,
                                       const std::vector<api::SearchRequest>& requests,
                                       uint32_t n,
                                       std::vector<std::optional<uint64_t>>* ref,
                                       Report* rep) {
  api::EngineOptions o;
  o.io_mode = api::IoMode::kMmap;
  o.compact_trigger_volumes = 0;
  auto engine = api::Engine::Open(dir, o);
  std::vector<QueryRecord> out;
  if (!engine.ok()) {
    rep->Fail("cannot open the mmap reference engine: " + engine.status().ToString());
    return out;
  }
  // Spans on (and dropped), so the stall compares two equally traced runs.
  SpanLog spans(true);
  for (uint32_t i = 0; i < n; ++i) {
    out.push_back(RunLocal(**engine, requests[i], i, i, &spans, nullptr));
  }
  CountOps(out, rep);
  CheckDigests(out, ref, "mmap reference", rep);
  return out;
}

/// Fills the per-layer metrics a traced replay yields, and splits the mean
/// request time by layer: the Search() call, Next() (its first call, which
/// includes merge priming, and the rest, with the storage stall taken out in
/// proportion) and, for daemon workloads, the server's overhead.
void LayerMetrics(const Traced& t, const std::vector<QueryRecord>& mmap_ref,
                  double server_overhead_ms, Report* rep) {
  const std::vector<QueryRecord>& recs = t.replay.records;
  const double n = static_cast<double>(std::max<size_t>(recs.size(), 1));
  std::vector<double> search_us, first_next_ms, next_calls, max_queue;
  double search_ns = 0, first_ns = 0, next_ns = 0, cells = 0, columns = 0,
         expanded = 0, accepted = 0, unviable = 0, results = 0;
  std::map<uint32_t, double> replay_next;
  for (const QueryRecord& r : recs) {
    search_us.push_back(static_cast<double>(r.search_ns) / 1e3);
    first_next_ms.push_back(Ms(r.first_next_ns));
    next_calls.push_back(static_cast<double>(r.results + 1));
    max_queue.push_back(static_cast<double>(r.stats.max_queue_size));
    search_ns += static_cast<double>(r.search_ns);
    first_ns += static_cast<double>(r.first_next_ns);
    next_ns += static_cast<double>(r.end_ns - r.start_ns - r.search_ns);
    cells += static_cast<double>(r.stats.cells_computed);
    columns += static_cast<double>(r.stats.columns_expanded);
    expanded += static_cast<double>(r.stats.nodes_expanded);
    accepted += static_cast<double>(r.stats.nodes_accepted);
    unviable += static_cast<double>(r.stats.nodes_unviable);
    results += static_cast<double>(r.results);
    replay_next.emplace(r.query, r.next_ms());
  }
  auto& L = rep->layer;
  L["api.search_us_p50"] = {Median(search_us), "us"};
  L["api.next_calls_per_query"] = {Mean(next_calls), "count"};
  L["core.first_next_ms_p50"] = {Median(first_next_ms), "ms"};
  L["core.next_ms_per_query"] = {next_ns / 1e6 / n, "ms"};
  L["core.ns_per_cell"] = {Ratio(next_ns, cells), "ns"};
  L["core.columns_per_query"] = {columns / n, "count"};
  L["core.cells_per_query"] = {cells / n, "count"};
  L["core.nodes_expanded_per_query"] = {expanded / n, "count"};
  L["core.accept_ratio"] = {Ratio(accepted, expanded), "ratio"};
  L["core.unviable_ratio"] = {Ratio(unviable, expanded), "ratio"};
  L["core.results_per_query"] = {results / n, "count"};
  L["core.max_queue_p99"] = {Quantile(max_queue, 0.99), "count"};

  const double req = static_cast<double>(t.after.requests - t.before.requests);
  const double hit = static_cast<double>(t.after.hits - t.before.hits);
  L["storage.requests_per_query"] = {req / n, "count"};
  L["storage.misses_per_query"] = {(req - hit) / n, "count"};
  L["storage.hit_ratio"] = {req == 0 ? 1.0 : hit / req, "ratio"};
  for (const char* kind : {"internal", "leaves", "symbols"}) {
    double kreq = 0, khit = 0;
    auto a = t.after.by_kind.find(kind);
    auto b = t.before.by_kind.find(kind);
    if (a != t.after.by_kind.end()) {
      kreq = static_cast<double>(a->second.first);
      khit = static_cast<double>(a->second.second);
    }
    if (b != t.before.by_kind.end()) {
      kreq -= static_cast<double>(b->second.first);
      khit -= static_cast<double>(b->second.second);
    }
    L[std::string("storage.") + kind + ".hit_ratio"] = {kreq == 0 ? 1.0 : khit / kreq,
                                                        "ratio"};
  }
  L["storage.read_bytes_per_query"] = {
      static_cast<double>(t.proc_after.rchar - t.proc_before.rchar) / n, "B"};
  L["storage.read_calls_per_query"] = {
      static_cast<double>(t.proc_after.syscr - t.proc_before.syscr) / n, "count"};
  L["storage.minor_faults_per_query"] = {
      static_cast<double>(t.proc_after.minflt - t.proc_before.minflt) / n, "count"};
  L["storage.pinned_frames_max"] = {static_cast<double>(t.pinned_max), "count"};

  // Stall: the same queries' Next() time on this engine minus on mmap.
  double stall = 0;
  size_t paired = 0;
  for (const QueryRecord& r : mmap_ref) {
    auto it = replay_next.find(r.query);
    if (it == replay_next.end()) continue;
    stall += it->second - r.next_ms();
    ++paired;
  }
  stall = paired == 0 ? 0.0 : stall / static_cast<double>(paired);
  L["storage.stall_ms_per_query"] = {stall, "ms"};
  if (!t.ping_us.empty()) L["server.ping_us_p50"] = {Median(t.ping_us), "us"};

  const double next = next_ns / 1e6 / n;
  const double storage = std::clamp(stall, 0.0, next);
  const double compute = next == 0 ? 0.0 : (next - storage) / next;
  const std::map<std::string, double> ms = {
      {"api", search_ns / 1e6 / n},
      {"core.first_next", first_ns / 1e6 / n * compute},
      {"core", (next - first_ns / 1e6 / n) * compute},
      {"storage", storage},
      {"server", std::max(0.0, server_overhead_ms)},
  };
  double total = 0;
  for (const auto& [name, v] : ms) total += v;
  std::string top;
  for (const auto& [name, v] : ms) {
    rep->shares[name] = Ratio(v, total);
    if (top.empty() || v > ms.at(top)) top = name;
  }
  rep->fingerprint["largest_layer"] = top;
  std::fprintf(stderr, "largest share of request time: %s (%.1f%%)\n",
               top.c_str(), 100 * rep->shares[top]);
}

/// tracing.overhead_ratio: the traced over the untraced p50 latency of the
/// same queries.
void OverheadRatio(const std::vector<QueryRecord>& traced,
                   const std::vector<QueryRecord>& untraced, Report* rep) {
  std::vector<double> a, b;
  for (const QueryRecord& r : traced) a.push_back(r.latency_ms());
  for (const QueryRecord& r : untraced) b.push_back(r.latency_ms());
  rep->layer["tracing.overhead_ratio"] = {Ratio(Median(a), Median(b)), "ratio"};
}

/// The daemon's overhead and frame count from a daemon check, plus every
/// admission rejection the server counted.
void ServerMetrics(const DaemonCheck& dc, const server::Server& srv, Report* rep) {
  const server::SessionRegistry::Stats ss = srv.session_stats();
  rep->layer["server.overhead_ms_p50"] = {Median(dc.overhead_ms), "ms"};
  rep->layer["server.frames_per_query"] = {Mean(dc.frames), "count"};
  rep->layer["server.rejected"] = {
      static_cast<double>(ss.rejected_inflight + ss.rejected_pressure +
                          ss.rejected_draining),
      "count"};
}

// --- Workloads ----------------------------------------------------------------

std::vector<api::SearchRequest> MakeRequests(const Config& c, const Inputs& in) {
  std::vector<api::SearchRequest> out;
  for (const auto& q : in.queries) out.push_back(api::SearchRequest(q).EValue(c.evalue));
  return out;
}

void SetUpMetrics(const Served& s, Report* rep) {
  rep->e2e["setup_s"] = {Median(s.total_s), "s"};
  rep->e2e["index_bytes_per_residue"] = {
      Ratio(static_cast<double>(s.packed_bytes), static_cast<double>(s.residues)),
      "B"};
  rep->layer["setup.build_s"] = {Median(s.build_s), "s"};
  rep->layer["setup.warm_s"] = {Median(s.warm_s), "s"};
  rep->layer["suffix.build_passes"] = {static_cast<double>(s.build_passes), "count"};
  rep->layer["mask.masked_fraction"] = {
      Ratio(static_cast<double>(s.masked), static_cast<double>(s.indexed + s.masked)),
      "ratio"};
}

void Fingerprint(const Config& c, const api::Engine& engine, const Inputs& in,
                 Report* rep) {
  const util::EngineStatsSnapshot snap = engine.CollectStats();
  auto& f = rep->fingerprint;
  f["cpu"] = CpuModel();
  f["nproc"] = std::to_string(std::thread::hardware_concurrency());
  f["simd"] = align::simd::SimdLevelName(engine.simd_level());
  f["io_mode"] = engine.io_mode() == api::IoMode::kMmap ? "mmap" : "pooled";
  f["pool_frames"] = std::to_string(snap.frames);
  f["pool_shards"] = std::to_string(snap.shards);
  f["volumes"] = std::to_string(engine.num_volumes());
  f["seed"] = std::to_string(c.seed);
  f["rate"] = std::to_string(c.rate);
  f["clients"] = std::to_string(c.clients);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(in.digest));
  f["input_digest"] = hex;
}

/// Appends each batch (compacting after every `compact_every`), timing both.
void WritePath(const Config& c, api::Engine* engine, const Inputs& in,
               const std::function<void(uint32_t)>& wait_for, SpanLog* log,
               std::vector<double>* append_ms, std::vector<double>* compact_ms,
               Report* rep) {
  for (uint32_t k = 0; k < in.batches.size(); ++k) {
    wait_for(k);
    const int64_t t0 = NowNs();
    util::Status st = engine->AppendSequences(in.batches[k]);
    const int64_t t1 = NowNs();
    log->Add(kApiAppend, k, -1, t0, t1);
    append_ms->push_back(Ms(t1 - t0));
    ++rep->attempted;
    if (!st.ok()) {
      ++rep->failed;
      rep->Fail("append failed: " + st.ToString());
    }
    std::fprintf(stderr, "append %u: %.1f ms, %zu volumes\n", k, Ms(t1 - t0),
                 engine->num_volumes());
    if ((k + 1) % c.compact_every != 0) continue;
    const int64_t t2 = NowNs();
    st = engine->Compact();
    const int64_t t3 = NowNs();
    log->Add(kApiCompact, k, -1, t2, t3);
    compact_ms->push_back(Ms(t3 - t2));
    ++rep->attempted;
    if (!st.ok()) {
      ++rep->failed;
      rep->Fail("compact failed: " + st.ToString());
    }
    std::fprintf(stderr, "compact: %.1f ms, %zu volumes\n", Ms(t3 - t2),
                 engine->num_volumes());
  }
}

int RunMotif(const Config& c, const Inputs& in, Report* rep, SpanLog* all) {
  const std::vector<api::SearchRequest> requests = MakeRequests(c, in);
  std::vector<std::optional<uint64_t>> ref(requests.size());
  auto served = SetUp(c, in, requests, &ref, rep);
  if (!served.ok()) {
    rep->Fail("set-up failed: " + served.status().ToString());
    return 1;
  }
  api::Engine& engine = *served->engine;
  all->Append(served->spans);
  SetUpMetrics(*served, rep);
  Fingerprint(c, engine, in, rep);

  ResetPeakRss();
  const ProcSample p0 = SampleProc();
  Phase timed = RunClosedLoop(engine, requests, c.clients,
                              std::numeric_limits<uint64_t>::max(),
                              NowNs() + static_cast<int64_t>(c.seconds * 1e9),
                              false, nullptr);
  const ProcSample p1 = SampleProc();
  rep->e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  CountOps(timed.records, rep);
  CheckDigests(timed.records, &ref, "timed", rep);
  EndToEnd(timed.records, timed.seconds(), rep);
  rep->layer["process.cpu_ms_per_query"] = {
      (p1.cpu_s - p0.cpu_s) * 1e3 / static_cast<double>(timed.records.size()), "ms"};
  {
    // Driver turnaround between one stream's end and the next Search().
    std::vector<double> gaps;
    for (size_t i = c.clients; i < timed.records.size(); ++i) {
      const double gap = Ms(timed.records[i].start_ns - timed.records[i - c.clients].end_ns);
      if (gap >= 0) gaps.push_back(gap);
    }
    rep->layer["loadgen.lag_ms_p99"] = {gaps.empty() ? 0.0 : Quantile(gaps, 0.99), "ms"};
  }

  const uint32_t n_ref = static_cast<uint32_t>(
      std::min<size_t>(c.ref_queries, timed.records.size()));
  if (!c.trace) {
    if (c.io_mode != api::IoMode::kMmap) {
      MmapReference(served->index_dir, requests, n_ref, &ref, rep);
    }
    return 0;
  }

  // Traced run: a daemon to ping, a traced replay of the first half of the
  // timed queries, the mmap baseline, a daemon probe and a write probe.
  server::ServerOptions so;
  auto srv = server::Server::Start({{"motif", &engine}}, so);
  if (!srv.ok()) {
    rep->Fail("server start failed: " + srv.status().ToString());
    return 1;
  }
  auto pinger = server::DaemonClient::Connect("127.0.0.1", (*srv)->port());
  const uint64_t n_replay = std::max<uint64_t>(timed.records.size() / 2, n_ref);
  Traced t = TracedReplay(engine, requests, c.clients, n_replay,
                          pinger.ok() ? &*pinger : nullptr, all);
  CountOps(t.replay.records, rep);
  CheckDigests(t.replay.records, &ref, "traced", rep);
  CheckSpanCoverage(t.replay.spans, rep);
  std::vector<QueryRecord> mmap_ref =
      MmapReference(served->index_dir, requests, n_ref, &ref, rep);
  // Motif requests are local: the daemon adds nothing to their time.
  LayerMetrics(t, mmap_ref, 0.0, rep);
  std::vector<QueryRecord> replayed(timed.records.begin(),
                                    timed.records.begin() + n_replay);
  OverheadRatio(t.replay.records, replayed, rep);
  ServerMetrics(CheckDaemon(c, engine, (*srv)->port(), in, requests, n_ref, rep),
                **srv, rep);
  rep->layer["api.volumes_per_query"] = {static_cast<double>(engine.num_volumes()),
                                         "count"};
  if (pinger.ok()) pinger->Close();
  (*srv)->Shutdown();
  all->Append(t.replay.spans);

  std::vector<double> append_ms, compact_ms;
  WritePath(c, &engine, in, [](uint32_t) {}, all, &append_ms, &compact_ms, rep);
  rep->layer["api.append_ms_p50"] = {Median(append_ms), "ms"};
  rep->layer["api.compact_ms_p50"] = {Median(compact_ms), "ms"};
  rep->layer["api.volumes_end"] = {static_cast<double>(engine.num_volumes()), "count"};
  return 0;
}

/// Pulls the integer after " score=" out of a rendered hit line.
bool ScoresNonIncreasing(const std::vector<std::string>& lines) {
  long last = std::numeric_limits<long>::max();
  for (const std::string& line : lines) {
    const size_t at = line.find(" score=");
    if (at == std::string::npos) return false;
    const long score = std::strtol(line.c_str() + at + 7, nullptr, 10);
    if (score > last) return false;
    last = score;
  }
  return true;
}

int RunReads(const Config& c, const Inputs& in, Report* rep, SpanLog* all) {
  const std::vector<api::SearchRequest> requests = MakeRequests(c, in);
  std::vector<std::optional<uint64_t>> ref(requests.size());
  auto served = SetUp(c, in, requests, &ref, rep);
  if (!served.ok()) {
    rep->Fail("set-up failed: " + served.status().ToString());
    return 1;
  }
  api::Engine& engine = *served->engine;
  all->Append(served->spans);
  SetUpMetrics(*served, rep);
  Fingerprint(c, engine, in, rep);

  server::ServerOptions so;
  auto srv = server::Server::Start({{"reads", &engine}}, so);
  if (!srv.ok()) {
    rep->Fail("server start failed: " + srv.status().ToString());
    return 1;
  }
  const uint16_t port = (*srv)->port();

  // Open loop: op j is due at t0 + j / rate. Each sender takes the next
  // unsent op, so a connection stuck on a slow stream does not hold back
  // the ops behind it while the other connection is free.
  const uint64_t n_ops = static_cast<uint64_t>(c.rate * c.seconds);
  const int64_t period = static_cast<int64_t>(1e9 / c.rate);
  std::vector<QueryRecord> ops(n_ops);
  std::vector<SpanLog> logs(c.clients, SpanLog(c.trace));
  SpanLog writer_log(c.trace);
  std::vector<double> append_ms, compact_ms;

  ResetPeakRss();
  const ProcSample p0 = SampleProc();
  const int64_t t0 = NowNs() + 20'000'000;
  std::atomic<uint64_t> next_op{0};
  std::vector<std::thread> senders;
  for (uint32_t s = 0; s < c.clients; ++s) {
    senders.emplace_back([&, s] {
      auto client = server::DaemonClient::Connect("127.0.0.1", port);
      SpanLog& log = logs[s];
      for (uint64_t j = next_op.fetch_add(1); j < n_ops; j = next_op.fetch_add(1)) {
        QueryRecord& op = ops[j];
        op.query = static_cast<uint32_t>(j % requests.size());
        op.start_ns = t0 + static_cast<int64_t>(j) * period;
        SleepUntilNs(op.start_ns);
        op.sent_ns = NowNs();
        op.volumes = static_cast<uint32_t>(engine.num_volumes());
        const int32_t root = log.Add(kRequest, j, -1, op.start_ns);
        const int32_t query = log.Add(kClientQuery, j, root, op.sent_ns);
        if (!client.ok()) {
          op.end_ns = NowNs();
          continue;
        }
        std::vector<std::string> lines;
        auto outcome = client->Query(MakeWire(c, in.query_text[op.query]),
                                     [&](std::string_view line) {
                                       if (op.first_ns < 0) op.first_ns = NowNs();
                                       lines.emplace_back(line);
                                       return true;
                                     });
        op.end_ns = NowNs();
        if (op.first_ns >= 0) {
          log.Add(kClientFirstFrame, j, query, op.sent_ns, op.first_ns);
        }
        log.End(query, op.end_ns);
        log.End(root, op.end_ns);
        op.results = lines.size();
        op.ok = outcome.ok() && !outcome->cached && outcome->hits == lines.size() &&
                ScoresNonIncreasing(lines);
      }
    });
  }
  std::thread writer([&] {
    WritePath(c, &engine, in,
              [&](uint32_t k) {
                const uint64_t j = (k + 1) * n_ops / (c.appends + 1);
                SleepUntilNs(t0 + static_cast<int64_t>(j) * period);
              },
              &writer_log, &append_ms, &compact_ms, rep);
  });
  std::vector<double> ping_us;
  SpanLog ping_log(c.trace);
  if (c.trace) {
    auto pinger = server::DaemonClient::Connect("127.0.0.1", port);
    const int64_t end = t0 + static_cast<int64_t>(n_ops) * period;
    while (pinger.ok() && NowNs() < end) {
      const int64_t a = NowNs();
      if (pinger->Ping().ok()) {
        const int64_t b = NowNs();
        ping_log.Add(kClientPing, 0, -1, a, b);
        ping_us.push_back(static_cast<double>(b - a) / 1e3);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  for (std::thread& s : senders) s.join();
  writer.join();
  const ProcSample p1 = SampleProc();
  rep->e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};

  int64_t last_end = t0;
  std::vector<double> lag, volumes;
  for (const QueryRecord& op : ops) {
    last_end = std::max(last_end, op.end_ns);
    lag.push_back(Ms(op.sent_ns - op.start_ns));
    volumes.push_back(op.volumes);
  }
  CountOps(ops, rep);
  EndToEnd(ops, Ms(last_end - t0) / 1e3, rep);
  rep->layer["loadgen.lag_ms_p99"] = {Quantile(lag, 0.99), "ms"};
  rep->layer["process.cpu_ms_per_query"] = {
      (p1.cpu_s - p0.cpu_s) * 1e3 / static_cast<double>(std::max<uint64_t>(n_ops, 1)),
      "ms"};
  rep->layer["api.append_ms_p50"] = {Median(append_ms), "ms"};
  rep->layer["api.compact_ms_p50"] = {Median(compact_ms), "ms"};
  rep->layer["api.volumes_end"] = {static_cast<double>(engine.num_volumes()), "count"};
  rep->layer["api.volumes_per_query"] = {Mean(volumes), "count"};
  std::fprintf(stderr, "open loop: %llu ops at %.1f/s, lag p99 %.3f ms, %zu volumes at end\n",
               static_cast<unsigned long long>(n_ops), c.rate, Quantile(lag, 0.99),
               engine.num_volumes());

  // After the final compaction every read must stream identically from the
  // daemon and from a local search of the same snapshot.
  const uint32_t n_check = static_cast<uint32_t>(
      std::min<uint64_t>(requests.size(), n_ops));
  DaemonCheck dc = CheckDaemon(c, engine, port, in, requests, n_check, rep);
  ServerMetrics(dc, **srv, rep);
  (*srv)->Shutdown();
  for (const SpanLog& log : logs) all->Append(log);
  all->Append(writer_log);
  all->Append(ping_log);
  if (!c.trace) return 0;

  // Traced: the daemon-side split comes from a local replay of the same
  // reads on the final snapshot, compared with the untraced check pass.
  const uint32_t n_ref = std::min(c.ref_queries, n_check);
  std::vector<std::optional<uint64_t>> final_ref(requests.size());
  CheckDigests(dc.local, &final_ref, "daemon check", rep);
  Traced t = TracedReplay(engine, requests, 1, n_check, nullptr, all);
  CountOps(t.replay.records, rep);
  CheckDigests(t.replay.records, &final_ref, "traced", rep);
  CheckSpanCoverage(t.replay.spans, rep);
  std::vector<QueryRecord> mmap_ref =
      MmapReference(served->index_dir, requests, n_ref, &final_ref, rep);
  LayerMetrics(t, mmap_ref, Median(dc.overhead_ms), rep);
  rep->layer["api.volumes_per_query"] = {Mean(volumes), "count"};
  rep->layer["server.ping_us_p50"] = {Median(ping_us), "us"};
  OverheadRatio(t.replay.records, dc.local, rep);
  all->Append(t.replay.spans);
  return 0;
}

// --- Output -------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ",";
    out += JsonString(name) + ":{\"value\":" + JsonNumber(m.value) +
           ",\"unit\":" + JsonString(m.unit) + "}";
  }
  return out + "}";
}

void PrintReport(const Report& rep, double run_s) {
  std::string out = "{\"correct\":";
  out += rep.violations.empty() && rep.failed == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(rep.attempted);
  out += ",\"failed\":" + std::to_string(rep.failed);
  out += ",\"run_s\":" + JsonNumber(run_s);
  out += ",\"end_to_end\":" + MetricsJson(rep.e2e);
  out += ",\"per_layer\":" + MetricsJson(rep.layer);
  out += ",\"fingerprint\":{";
  bool first = true;
  for (const auto& [k, v] : rep.fingerprint) {
    out += (first ? "" : ",") + JsonString(k) + ":" + JsonString(v);
    first = false;
  }
  out += "},\"layer_shares\":{";
  first = true;
  for (const auto& [k, v] : rep.shares) {
    out += (first ? "" : ",") + JsonString(k) + ":" + JsonNumber(v);
    first = false;
  }
  out += "},\"span_self_ms\":{";
  first = true;
  for (const auto& [k, v] : rep.span_self_ms) {
    out += (first ? "" : ",") + JsonString(k) + ":" + JsonNumber(v);
    first = false;
  }
  out += "},\"violations\":[";
  for (size_t i = 0; i < rep.violations.size(); ++i) {
    out += (i ? "," : "") + JsonString(rep.violations[i]);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: oasis_perfbench --workload motif_mmap|motif_pool25|reads_live "
               "--seed N --seconds S --trace 0|1 --workdir DIR [--spans FILE] "
               "[--smoke] [--rate R]\n");
  return 2;
}

int Main(int argc, char** argv) {
  const int64_t run_start = NowNs();
  Config c;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      c.smoke = true;
    } else if (!has_value) {
      return Usage();
    } else if (flag == "--workload") {
      c.workload = argv[++i];
    } else if (flag == "--seed") {
      c.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      c.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace") {
      c.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--workdir") {
      c.workdir = argv[++i];
    } else if (flag == "--spans") {
      c.spans_path = argv[++i];
    } else if (flag == "--rate") {
      c.rate = std::strtod(argv[++i], nullptr);
    } else {
      return Usage();
    }
  }
  if (c.workdir.empty() || !(c.seconds > 0) || !Configure(&c)) return Usage();
  fs::create_directories(c.workdir);

  auto inputs = Generate(c);
  if (!inputs.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 inputs.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "inputs: %llu residues, %zu queries, digest %016llx\n",
               static_cast<unsigned long long>(inputs->db->num_residues()),
               inputs->queries.size(),
               static_cast<unsigned long long>(inputs->digest));

  Report rep;
  SpanLog spans(c.trace);
  const int rc = c.dna ? RunReads(c, *inputs, &rep, &spans)
                       : RunMotif(c, *inputs, &rep, &spans);
  rep.span_self_ms = SelfTimes(spans);
  WriteSpans(c.spans_path, spans);

  for (const auto& [name, m] : rep.e2e) {
    if (!std::isfinite(m.value) || m.value <= 0) rep.Fail(name + " is not a positive number");
  }
  if (rep.attempted == 0) rep.Fail("no operation was attempted");
  const double ok_ratio =
      rep.attempted == 0
          ? 0.0
          : static_cast<double>(rep.attempted - std::min(rep.failed, rep.attempted)) /
                static_cast<double>(rep.attempted);
  rep.e2e["ok_ratio"] = {ok_ratio, "ratio"};
  PrintReport(rep, Ms(NowNs() - run_start) / 1e3);
  fs::remove_all(c.workdir);
  return rc != 0 || !rep.violations.empty() || rep.failed != 0 ? 1 : 0;
}

}  // namespace
}  // namespace oasis::perfbench

int main(int argc, char** argv) { return oasis::perfbench::Main(argc, argv); }

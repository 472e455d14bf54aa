// Service workload: service-crud.
//
// A ServiceServer with 4 workers on loopback holds 4 tables x 20,000 rows x
// 8 columns (fd-reduced, domain 24), ingested during set-up. Four clients
// run a closed loop, because a profiling caller blocks on each reply. Client
// i writes only table i, so each table's write order is deterministic. The
// mix: 60% ApplyMixed with 16 inserts, 16 deletes and 16 updates (the live
// row count stays put), 20% QueryFds, 10% FetchReport and 10% QueryUccs,
// each read against a random table. This is the only path through
// core/incremental, core/hyucc and service, and it puts writes beside reads
// on the same table locks.
//
// The traced run replays a prefix of each table's recorded requests,
// uncontended, three ways: through ServiceClient over a socket, through
// HandleRequestFrame on an in-process FdService, and as direct session
// calls. Socket minus frame is the network layer, frame minus direct is the
// service layer, and loaded minus socket is time spent waiting.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/hyfd.h"
#include "core/hyucc.h"
#include "core/incremental.h"
#include "data/generators.h"
#include "data/relation.h"
#include "data/schema.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "trace.h"
#include "util/sync.h"
#include "util/timer.h"

namespace perfbench {
namespace {

namespace svc = hyfd::service;
using hyfd::FDSet;
using hyfd::Relation;
using svc::ApplyMixedRequest;
using svc::Row;
using svc::Rows;

constexpr int kTables = 4;
constexpr size_t kRows = 20000;
constexpr int kCols = 8;
constexpr uint64_t kDomain = 24;
constexpr size_t kBatch = 16;
constexpr size_t kWorkers = 4;
constexpr int kSetupRepeats = 3;
constexpr double kWarmupSeconds = 2.0;
/// Measured requests replayed per table in the traced run; the replay runs
/// uncontended and three ways, so a prefix keeps it inside the run budget.
constexpr size_t kReplayPerTable = 48;

enum Op : int { kApply = 0, kQueryFds, kQueryUccs, kFetchReport, kNumOps };
const char* const kOpNames[kNumOps] = {"apply_mixed", "query_fds", "query_uccs",
                                       "fetch_report"};

std::string TableName(int t) { return "t" + std::to_string(t); }

uint64_t Fold(uint64_t h, uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}
constexpr uint64_t kFnvBasis = 1469598103934665603ull;

uint64_t DigestWireFds(const std::vector<svc::WireFd>& fds) {
  uint64_t h = kFnvBasis;
  for (const svc::WireFd& fd : fds) {
    for (uint32_t attr : fd.lhs) h = Fold(h, attr);
    h = Fold(h, 1000 + fd.rhs);
  }
  return h;
}

uint64_t DigestUccs(const std::vector<std::vector<uint32_t>>& uccs) {
  uint64_t h = kFnvBasis;
  for (const auto& ucc : uccs) {
    for (uint32_t attr : ucc) h = Fold(h, attr);
    h = Fold(h, 1000);
  }
  return h;
}

std::vector<std::vector<uint32_t>> ToWire(const std::vector<hyfd::AttributeSet>& uccs) {
  std::vector<std::vector<uint32_t>> out;
  for (const hyfd::AttributeSet& ucc : uccs) {
    std::vector<uint32_t> wire;
    for (int attr : ucc.ToIndexes()) wire.push_back(static_cast<uint32_t>(attr));
    out.push_back(std::move(wire));
  }
  return out;
}

std::vector<svc::WireFd> ToWire(const FDSet& fds) {
  std::vector<svc::WireFd> out;
  for (const hyfd::FD& fd : fds) {
    svc::WireFd wire;
    for (int attr : fd.lhs.ToIndexes()) wire.lhs.push_back(static_cast<uint32_t>(attr));
    wire.rhs = static_cast<uint32_t>(fd.rhs);
    out.push_back(std::move(wire));
  }
  return out;
}

uint64_t DigestStatus(uint64_t live, uint64_t total, uint64_t num_fds) {
  return Fold(Fold(Fold(kFnvBasis, live), total), num_fds);
}

Row RandomRow(std::mt19937_64& rng) {
  Row row;
  for (int c = 0; c < kCols; ++c) {
    // The generator's spelling, so inserted values share the columns' domain.
    row.emplace_back("c" + std::to_string(c) + "_" + std::to_string(rng() % kDomain));
  }
  return row;
}

/// The benchmark's own model of one table: every row by physical id (the
/// session's numbering: inserts first, then the updates' fresh versions) and
/// which of them are live.
class TableModel {
 public:
  TableModel(std::vector<std::string> columns, const Rows& rows)
      : columns_(std::move(columns)) {
    for (const Row& row : rows) Add(row);
  }

  size_t live_rows() const { return live_ids_.size(); }
  size_t total_rows() const { return rows_.size(); }
  const std::vector<std::string>& columns() const { return columns_; }

  /// 16 inserts, 16 deletes and 16 updates; deletes and updates name
  /// distinct live rows.
  ApplyMixedRequest MakeBatch(const std::string& table, std::mt19937_64& rng) const {
    ApplyMixedRequest req;
    req.table = table;
    for (size_t i = 0; i < kBatch; ++i) req.inserts.push_back(RandomRow(rng));
    std::unordered_set<uint64_t> picked;
    while (picked.size() < 2 * kBatch) {
      const uint64_t id = live_ids_[rng() % live_ids_.size()];
      if (!picked.insert(id).second) continue;
      if (req.deletes.size() < kBatch) {
        req.deletes.push_back(id);
      } else {
        req.updates.emplace_back(id, RandomRow(rng));
      }
    }
    return req;
  }

  void Apply(const ApplyMixedRequest& req) {
    for (uint64_t id : req.deletes) Kill(id);
    for (const auto& [id, row] : req.updates) Kill(id);
    for (const Row& row : req.inserts) Add(row);
    for (const auto& [id, row] : req.updates) Add(row);
  }

  /// The live rows in id order, as the session's LiveRelation() lists them.
  Relation LiveRelation() const {
    Rows live;
    for (size_t id = 0; id < rows_.size(); ++id) {
      if (slot_[id] != kDead) live.push_back(rows_[id]);
    }
    return Relation::FromRows(hyfd::Schema(columns_), live);
  }

 private:
  static constexpr size_t kDead = static_cast<size_t>(-1);

  void Add(const Row& row) {
    slot_.push_back(live_ids_.size());
    live_ids_.push_back(rows_.size());
    rows_.push_back(row);
  }
  void Kill(uint64_t id) {
    const size_t slot = slot_[id];
    const uint64_t moved = live_ids_.back();
    live_ids_[slot] = moved;
    slot_[moved] = slot;
    live_ids_.pop_back();
    slot_[id] = kDead;
    rows_[id].clear();
  }

  std::vector<std::string> columns_;
  Rows rows_;
  std::vector<uint64_t> live_ids_;
  std::vector<size_t> slot_;
};

/// One request of the loaded run, as replayed by the traced run.
struct Logged {
  Op op = kApply;
  bool warmup = false;
  ApplyMixedRequest batch;  // kApply only
};

struct Tables {
  std::vector<std::string> columns;
  std::vector<Rows> rows;  // initial content per table
};

Tables MakeTables(uint64_t seed) {
  Tables tables;
  for (int t = 0; t < kTables; ++t) {
    const Relation rel = hyfd::GenerateFdReduced(kRows, kCols, kDomain,
                                                 seed * kTables + static_cast<uint64_t>(t));
    if (tables.columns.empty()) tables.columns = rel.schema().names();
    Rows rows(rel.num_rows());
    for (size_t r = 0; r < rel.num_rows(); ++r) {
      for (int c = 0; c < kCols; ++c) rows[r].emplace_back(rel.Value(r, c));
    }
    tables.rows.push_back(std::move(rows));
  }
  return tables;
}

svc::ServerConfig ServerConfigFor() {
  svc::ServerConfig config;
  config.service.num_workers = kWorkers;
  return config;
}

/// Starts a server and creates and ingests every table through a client.
std::unique_ptr<svc::ServiceServer> StartAndIngest(const Tables& tables) {
  auto server = std::make_unique<svc::ServiceServer>(ServerConfigFor());
  server->Start();
  svc::ServiceClient admin(server->port());
  for (int t = 0; t < kTables; ++t) {
    svc::ServiceClient::Outcome created = admin.CreateTable(TableName(t), tables.columns);
    svc::ServiceClient::Outcome ingested =
        created.ok() ? admin.IngestBatch(TableName(t), tables.rows[static_cast<size_t>(t)])
                     : created;
    if (!ingested.ok()) {
      throw std::runtime_error("set-up ingest of " + TableName(t) +
                               " failed: " + ingested.message);
    }
  }
  return server;
}

struct ClientStats {
  std::vector<double> ms[kNumOps];
  std::vector<double> all_ms;
  uint64_t attempted = 0;
  std::vector<std::string> failures;
};

/// Per-table request logs shared by the client threads.
class Logs {
 public:
  void Append(int table, Logged entry) {
    hyfd::MutexLock lock(mu_);
    logs_[static_cast<size_t>(table)].push_back(std::move(entry));
  }
  std::vector<std::vector<Logged>> Take() {
    hyfd::MutexLock lock(mu_);
    return std::move(logs_);
  }

 private:
  hyfd::Mutex mu_;
  std::vector<std::vector<Logged>> logs_ HYFD_GUARDED_BY(mu_) =
      std::vector<std::vector<Logged>>(kTables);
};

/// One client of the closed loop; appends each ok request to `logs` when
/// that is non-null.
void ClientLoopBody(uint16_t port, int client_index, uint64_t seed, double warm_end,
                    double end, TableModel* own, Logs* logs, ClientStats* stats) {
  svc::ServiceClient client(port);
  std::mt19937_64 rng(seed * 7919 + static_cast<uint64_t>(client_index));
  const std::string own_table = TableName(client_index);
  while (true) {
    const double start = NowSeconds();
    if (start >= end) break;
    const uint64_t roll = rng() % 10;
    Logged entry;
    entry.op = roll < 6 ? kApply : roll < 8 ? kQueryFds : roll < 9 ? kFetchReport : kQueryUccs;
    entry.warmup = start < warm_end;
    const int table =
        entry.op == kApply ? client_index : static_cast<int>(rng() % kTables);
    svc::ServiceClient::Outcome r;
    switch (entry.op) {
      case kApply:
        entry.batch = own->MakeBatch(own_table, rng);
        r = client.ApplyMixed(own_table, entry.batch.inserts, entry.batch.deletes,
                              entry.batch.updates);
        break;
      case kQueryFds:
        r = client.QueryFds(TableName(table));
        break;
      case kQueryUccs:
        r = client.QueryUccs(TableName(table));
        break;
      default:
        r = client.FetchReport(TableName(table));
        break;
    }
    const double ms = (NowSeconds() - start) * 1e3;
    std::string failure;
    if (!r.ok()) {
      failure = std::string(kOpNames[entry.op]) + " on " + TableName(table) + ": " +
                svc::ServiceErrorName(r.code) + " " + r.message;
    } else if (entry.op == kApply) {
      own->Apply(entry.batch);
      if (r.reply.status.live_rows != own->live_rows() ||
          r.reply.status.total_rows != own->total_rows()) {
        failure = "apply_mixed on " + own_table + ": row counts disagree with the model";
      }
    }
    ++stats->attempted;
    if (!failure.empty()) stats->failures.push_back(failure);
    if (!entry.warmup) {
      stats->ms[entry.op].push_back(ms);
      stats->all_ms.push_back(ms);
    }
    if (r.ok() && logs != nullptr) logs->Append(table, std::move(entry));
  }
}

/// Thread entry: a client that cannot go on counts as one failed request.
void ClientLoop(uint16_t port, int client_index, uint64_t seed, double warm_end,
                double end, TableModel* own, Logs* logs, ClientStats* stats) {
  try {
    ClientLoopBody(port, client_index, seed, warm_end, end, own, logs, stats);
  } catch (const std::exception& e) {
    ++stats->attempted;
    stats->failures.push_back("client " + std::to_string(client_index) + ": " + e.what());
  }
}

struct LoadResult {
  ClientStats stats;  // merged
  double measured_seconds = 0;
  double measured_cpu_seconds = 0;
  std::vector<std::vector<Logged>> logs;
};

/// The closed loop: kTables clients, a warm-up that is not measured, then
/// `seconds` measured. Requests are logged for replay only if `keep_logs`.
LoadResult RunLoad(uint16_t port, uint64_t seed, double seconds, bool keep_logs,
                   std::vector<TableModel>* models) {
  Logs logs;
  std::vector<ClientStats> stats(kTables);
  const double warm_end = NowSeconds() + kWarmupSeconds;
  const double end = warm_end + seconds;
  std::vector<std::thread> clients;
  for (int i = 0; i < kTables; ++i) {
    clients.emplace_back(ClientLoop, port, i, seed, warm_end, end,
                         &(*models)[static_cast<size_t>(i)], keep_logs ? &logs : nullptr,
                         &stats[static_cast<size_t>(i)]);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(warm_end - NowSeconds()));
  const double cpu_start = ProcessCpuSeconds();
  for (std::thread& t : clients) t.join();
  LoadResult out;
  out.measured_seconds = NowSeconds() - warm_end;
  out.measured_cpu_seconds = ProcessCpuSeconds() - cpu_start;
  for (ClientStats& s : stats) {
    for (int op = 0; op < kNumOps; ++op) {
      out.stats.ms[op].insert(out.stats.ms[op].end(), s.ms[op].begin(), s.ms[op].end());
    }
    out.stats.all_ms.insert(out.stats.all_ms.end(), s.all_ms.begin(), s.all_ms.end());
    out.stats.attempted += s.attempted;
    out.stats.failures.insert(out.stats.failures.end(), s.failures.begin(),
                              s.failures.end());
  }
  out.logs = logs.Take();
  return out;
}

/// End-state gate: per table, the served FD set equals a from-scratch HyFD
/// run on the model's live rows, the served content fingerprint equals the
/// model's, and the served UCCs equal HyUCC on the model.
void CheckEndState(uint16_t port, const std::vector<TableModel>& models, Result* result) {
  svc::ServiceClient admin(port);
  for (int t = 0; t < kTables; ++t) {
    const TableModel& model = models[static_cast<size_t>(t)];
    const Relation live = model.LiveRelation();
    result->AddAttempted(3);

    svc::ServiceClient::Outcome fds = admin.QueryFds(TableName(t));
    hyfd::HyFdConfig fd_config;
    fd_config.num_threads = 4;
    const FDSet expected = hyfd::DiscoverFds(live, fd_config);
    if (!fds.ok() || !(fds.reply.fds == ToWire(expected))) {
      result->Fail(TableName(t) + ": served FD set differs from HyFD on the model");
    }

    svc::ServiceClient::Outcome report = admin.FetchReport(TableName(t));
    if (!report.ok() || report.reply.content_fingerprint != live.ContentFingerprint()) {
      result->Fail(TableName(t) + ": content fingerprint differs from the model's");
    }

    svc::ServiceClient::Outcome uccs = admin.QueryUccs(TableName(t));
    hyfd::HyUcc hyucc;
    if (!uccs.ok() || !(uccs.reply.uccs == ToWire(hyucc.Discover(live)))) {
      result->Fail(TableName(t) + ": served UCCs differ from HyUCC on the model");
    }
  }
}

// ---------------------------------------------------------------------------
// Traced run: uncontended replays.
// ---------------------------------------------------------------------------

struct ReplayTimes {
  std::vector<double> ms[kNumOps];
  /// One digest per replayed request; every way must give the same ones.
  std::vector<uint64_t> digests;
};

/// Walks the replayed prefix of every table's log: the warm-up writes
/// (`measured` false), then the first kReplayPerTable measured requests.
template <typename Fn>
void ForEachReplayed(const std::vector<std::vector<Logged>>& logs, Fn fn) {
  for (int t = 0; t < kTables; ++t) {
    size_t measured = 0;
    for (const Logged& entry : logs[static_cast<size_t>(t)]) {
      if (entry.warmup) {
        if (entry.op == kApply) fn(t, entry, false);
        continue;
      }
      if (measured++ == kReplayPerTable) break;
      fn(t, entry, true);
    }
  }
}

void Record(ReplayTimes* out, Op op, double start, uint64_t digest) {
  out->ms[op].push_back((NowSeconds() - start) * 1e3);
  out->digests.push_back(digest);
}

uint64_t DigestReply(const svc::ReplyBody& reply, Op op) {
  switch (op) {
    case kApply:
      return DigestStatus(reply.status.live_rows, reply.status.total_rows,
                          reply.status.num_fds);
    case kQueryFds:
      return DigestWireFds(reply.fds);
    case kQueryUccs:
      return DigestUccs(reply.uccs);
    default:
      return reply.content_fingerprint;
  }
}

/// One request through ServiceClient over the socket.
uint64_t SocketCall(svc::ServiceClient& client, int t, const Logged& e, Result* result) {
  svc::ServiceClient::Outcome r;
  switch (e.op) {
    case kApply:
      r = client.ApplyMixed(TableName(t), e.batch.inserts, e.batch.deletes, e.batch.updates);
      break;
    case kQueryFds:
      r = client.QueryFds(TableName(t));
      break;
    case kQueryUccs:
      r = client.QueryUccs(TableName(t));
      break;
    default:
      r = client.FetchReport(TableName(t));
      break;
  }
  if (!r.ok()) result->Fail("socket replay: " + std::string(kOpNames[e.op]) + " failed");
  return DigestReply(r.reply, e.op);
}

/// One request through HandleRequestFrame on an in-process FdService; adds
/// the reply payload size of a QueryFds to `query_fds_reply_bytes`.
uint64_t FrameCall(svc::FdService& service, int t, const Logged& e,
                   std::vector<double>* query_fds_reply_bytes, Result* result) {
  svc::Frame request;
  switch (e.op) {
    case kApply:
      request = {svc::MessageType::kApplyMixed, svc::EncodeApplyMixed(e.batch)};
      break;
    case kQueryFds:
      request = {svc::MessageType::kQueryFds, svc::EncodeQueryFds({TableName(t)})};
      break;
    case kQueryUccs:
      request = {svc::MessageType::kQueryUccs, svc::EncodeTableRequest({TableName(t)})};
      break;
    default:
      request = {svc::MessageType::kFetchReport, svc::EncodeTableRequest({TableName(t)})};
      break;
  }
  const svc::Frame response = svc::HandleRequestFrame(service, request);
  if (response.type != svc::MessageType::kReply) {
    result->Fail("frame replay: " + std::string(kOpNames[e.op]) + " failed");
    return 0;
  }
  if (e.op == kQueryFds) {
    query_fds_reply_bytes->push_back(static_cast<double>(response.payload.size()));
  }
  return DigestReply(svc::DecodeReply(response.payload), e.op);
}

/// Per-batch counters of the direct session replay.
struct SessionCounters {
  std::vector<double> touched_clusters;
  std::vector<double> validations;
  std::vector<double> comparisons;
  std::vector<double> fds_generalized;
};

/// Direct calls into IncrementalHyFd and HyUcc, one session per table,
/// configured as the service configures its sessions.
class DirectSessions {
 public:
  explicit DirectSessions(const Tables& tables) {
    for (int t = 0; t < kTables; ++t) {
      hyfd::IncrementalConfig config;
      config.null_semantics = service_config_.null_semantics;
      config.efficiency_threshold = service_config_.efficiency_threshold;
      config.num_threads = 1;
      config.pli_cache_budget_bytes = service_config_.pli_cache_total_budget_bytes / kTables;
      sessions_.push_back(std::make_unique<hyfd::IncrementalHyFd>(
          Relation::FromRows(hyfd::Schema(tables.columns), {}), config));
      sessions_.back()->ApplyBatch(tables.rows[static_cast<size_t>(t)]);
    }
  }

  /// Runs one request; spans go to `tracer` (one per request, with a child
  /// per call) and batch counters to `counters`, when they are non-null.
  uint64_t Run(int t, const Logged& e, Tracer* tracer, SessionCounters* counters) {
    hyfd::IncrementalHyFd& session = *sessions_[static_cast<size_t>(t)];
    const uint64_t id = ++request_id_;
    Tracer::Scope request(tracer, std::string("request.") + kOpNames[e.op], id);
    switch (e.op) {
      case kApply: {
        std::vector<hyfd::RecordId> deletes(e.batch.deletes.begin(), e.batch.deletes.end());
        std::vector<std::pair<hyfd::RecordId, Row>> updates;
        for (const auto& [row_id, row] : e.batch.updates) {
          updates.emplace_back(static_cast<hyfd::RecordId>(row_id), row);
        }
        {
          Tracer::Scope span(tracer, "session.apply_mixed", id);
          session.ApplyMixed(e.batch.inserts, deletes, updates);
        }
        if (counters != nullptr) {
          const hyfd::IncrementalBatchStats& stats = session.last_batch_stats();
          counters->touched_clusters.push_back(static_cast<double>(stats.touched_clusters));
          counters->validations.push_back(static_cast<double>(stats.validations));
          counters->comparisons.push_back(static_cast<double>(stats.comparisons));
          counters->fds_generalized.push_back(static_cast<double>(stats.fds_generalized));
        }
        return DigestStatus(session.num_live_rows(), session.relation().num_rows(),
                            session.fds().size());
      }
      case kQueryFds: {
        Tracer::Scope span(tracer, "session.fds", id);
        return DigestWireFds(ToWire(session.fds()));
      }
      case kQueryUccs: {
        Relation live;
        {
          Tracer::Scope span(tracer, "session.live_relation", id);
          live = session.LiveRelation();
        }
        Tracer::Scope span(tracer, "hyucc", id);
        hyfd::HyUccConfig config;
        config.null_semantics = service_config_.null_semantics;
        config.efficiency_threshold = service_config_.efficiency_threshold;
        hyfd::HyUcc hyucc(config);
        return DigestUccs(ToWire(hyucc.Discover(live)));
      }
      default: {
        {
          Tracer::Scope span(tracer, "session.report_json", id);
          const std::string json = session.report().ToJson();
          if (json.empty()) return 0;
        }
        Relation live;
        {
          Tracer::Scope span(tracer, "session.live_relation", id);
          live = session.LiveRelation();
        }
        Tracer::Scope span(tracer, "relation.fingerprint", id);
        return live.ContentFingerprint();
      }
    }
  }

 private:
  const svc::ServiceConfig service_config_ = ServerConfigFor().service;
  std::vector<std::unique_ptr<hyfd::IncrementalHyFd>> sessions_;
  uint64_t request_id_ = 0;
};

/// p50 over the spans called `name`, in milliseconds.
double SpanP50Ms(const Tracer& tracer, const std::string& name) {
  std::vector<double> ms;
  for (const Tracer::Span& span : tracer.spans()) {
    if (span.name == name) ms.push_back(span.duration() * 1e3);
  }
  return Median(ms);
}

double Mean(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return values.empty() ? 0.0 : total / static_cast<double>(values.size());
}

double Sum(const ReplayTimes& times) {
  double total = 0;
  for (const auto& v : times.ms) {
    for (double ms : v) total += ms;
  }
  return total;
}

void ReportTraced(const Args& args, const Tables& tables, const LoadResult& load,
                  Result* result) {
  // The four ways run in lockstep, each request through every way before the
  // next, with a rotating order. Differences between ways are then layer
  // costs, not drift between separate passes. The direct way runs twice, on
  // twin sessions, traced and untraced: their difference is the tracing cost.
  std::unique_ptr<svc::ServiceServer> server = StartAndIngest(tables);
  svc::ServiceClient client(server->port());
  svc::FdService service(ServerConfigFor().service);
  for (int t = 0; t < kTables; ++t) {
    if (!service.CreateTable({TableName(t), tables.columns}).ok() ||
        !service.IngestBatch({TableName(t), tables.rows[static_cast<size_t>(t)]}).ok()) {
      throw std::runtime_error("frame replay: set-up ingest of " + TableName(t) + " failed");
    }
  }
  DirectSessions traced_sessions(tables);
  DirectSessions plain_sessions(tables);
  Tracer tracer;
  SessionCounters counters;
  std::vector<double> reply_bytes;
  enum Way { kSocket, kFrame, kDirect, kUntraced, kNumWays };
  ReplayTimes times[kNumWays];
  size_t request = 0;
  ForEachReplayed(load.logs, [&](int t, const Logged& e, bool measured) {
    const size_t first = request++ % kNumWays;
    for (size_t k = 0; k < kNumWays; ++k) {
      const Way way = static_cast<Way>((first + k) % kNumWays);
      std::vector<double> bytes;
      const double start = NowSeconds();
      uint64_t digest = 0;
      switch (way) {
        case kSocket:
          digest = SocketCall(client, t, e, result);
          break;
        case kFrame:
          digest = FrameCall(service, t, e, &bytes, result);
          break;
        case kDirect:
          digest = traced_sessions.Run(t, e, measured ? &tracer : nullptr,
                                       measured ? &counters : nullptr);
          break;
        default:
          digest = plain_sessions.Run(t, e, nullptr, nullptr);
          break;
      }
      if (!measured) continue;
      Record(&times[way], e.op, start, digest);
      reply_bytes.insert(reply_bytes.end(), bytes.begin(), bytes.end());
    }
  });
  server->Stop();
  service.Shutdown();
  tracer.WriteJson(args.workdir + "/trace-" + args.workload + "-" +
                   std::to_string(args.seed) + ".json");
  const ReplayTimes& socket = times[kSocket];
  const ReplayTimes& frames = times[kFrame];
  const ReplayTimes& direct = times[kDirect];
  const ReplayTimes& untraced = times[kUntraced];

  const size_t replayed = socket.digests.size();
  result->AddAttempted(4 * replayed);
  if (frames.digests != socket.digests || direct.digests != socket.digests ||
      untraced.digests != socket.digests) {
    result->Fail("the socket, frame and direct replays answered differently",
                 replayed);
  }

  for (int op = 0; op < kNumOps; ++op) {
    const std::string name = kOpNames[op];
    const double loaded_p50 = Median(load.stats.ms[op]);
    const double socket_p50 = Median(socket.ms[op]);
    const double frame_p50 = Median(frames.ms[op]);
    result->Set("loaded.p50_ms." + name, loaded_p50, "ms");
    result->Set("loaded.p95_ms." + name, Percentile(load.stats.ms[op], 95), "ms");
    result->Set("wait.ms." + name, loaded_p50 - socket_p50, "ms");
    result->Set("net.ms." + name, socket_p50 - frame_p50, "ms");
    result->Set("service.ms." + name, frame_p50 - Median(direct.ms[op]), "ms");
  }
  result->Set("protocol.reply_bytes.query_fds", Median(reply_bytes), "bytes");
  result->Set("session.apply_ms", SpanP50Ms(tracer, "session.apply_mixed"), "ms");
  result->Set("session.touched_clusters", Mean(counters.touched_clusters), "count");
  result->Set("session.validations", Mean(counters.validations), "count");
  result->Set("session.comparisons", Mean(counters.comparisons), "count");
  result->Set("session.fds_generalized", Mean(counters.fds_generalized), "count");
  result->Set("session.live_relation_ms", SpanP50Ms(tracer, "session.live_relation"), "ms");
  result->Set("session.report_json_ms", SpanP50Ms(tracer, "session.report_json"), "ms");
  result->Set("hyucc.ms", SpanP50Ms(tracer, "hyucc"), "ms");
  result->Set("trace.overhead_pct", 100.0 * (Sum(direct) - Sum(untraced)) / Sum(untraced),
              "%");
  double request_s = 0;
  double request_self_s = 0;
  for (const char* op : kOpNames) {
    request_s += tracer.TotalSeconds(std::string("request.") + op);
    request_self_s += tracer.SelfSeconds(std::string("request.") + op);
  }
  result->Set("trace.unattributed_pct", 100.0 * request_self_s / request_s, "%");
}

}  // namespace

Result RunServiceLoad(const Args& args) {
  Result result;
  // Set-up: generate the tables, start the server, create and ingest.
  std::vector<double> setup_times;
  std::unique_ptr<svc::ServiceServer> server;
  Tables tables;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server != nullptr) server->Stop();
    server.reset();
    hyfd::Timer timer;
    tables = MakeTables(args.seed);
    server = StartAndIngest(tables);
    setup_times.push_back(timer.ElapsedSeconds());
  }
  std::vector<TableModel> models;
  for (int t = 0; t < kTables; ++t) {
    models.emplace_back(tables.columns, tables.rows[static_cast<size_t>(t)]);
  }

  LoadResult load = RunLoad(server->port(), args.seed, args.seconds, args.trace, &models);
  const double peak_rss = PeakRssMb();
  result.AddAttempted(load.stats.attempted);
  for (const std::string& failure : load.stats.failures) result.Fail(failure);
  CheckEndState(server->port(), models, &result);
  server->Stop();
  server.reset();

  if (!args.trace) {
    result.Set("setup_s", Median(setup_times), "s");
    result.Set("peak_rss_mb", peak_rss, "MB");
    result.Set("ops_per_s",
               static_cast<double>(load.stats.all_ms.size()) / load.measured_seconds, "1/s");
    result.Set("op_p50_ms", Median(load.stats.all_ms), "ms");
    result.Set("cpu_ms_per_op",
               1e3 * load.measured_cpu_seconds / static_cast<double>(load.stats.all_ms.size()),
               "ms");
    result.Set("success_rate",
               1.0 - static_cast<double>(result.failed()) /
                         static_cast<double>(result.attempted()),
               "ratio");
  } else {
    ReportTraced(args, tables, load, &result);
  }
  return result;
}

}  // namespace perfbench

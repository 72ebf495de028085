// The repo benchmark's load generator. One process holds the engine (and,
// for the wire workloads, its server on loopback) and an open-loop
// generator that sends a seeded request stream at fixed offered rates.
// See README.md for the workloads, the metrics and how to read the trace.
//
// Usage: loadbench --workload W --seed N --seconds S --trace 0|1
//                  --rate R --ladder-down A --ladder-up B
//                  [--out-dir D] [--commit C]
// The last line of standard output is the JSON result.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core.h"
#include "entangle/normalizer.h"
#include "net/protocol.h"
#include "net/server.h"
#include "server/youtopia.h"
#include "service/executor_service.h"
#include "sql/parser.h"

namespace loadbench {
namespace {

using youtopia::EntangledHandle;
using youtopia::QueryResult;
using youtopia::Tuple;
using youtopia::Youtopia;

// ---------------------------------------------------------------- profile

constexpr size_t kWorkers = 4;
constexpr size_t kConnections = 4;
constexpr size_t kAdmissionHighWater = 256;
constexpr size_t kStandingPool = 256;
constexpr int kRounds = 10;
constexpr int kSetupsPerRound = 3;
/// Quantiles are taken per window of a leg and reported as the median
/// over windows, so one stalled moment moves a run's p99 by one window.
/// A fixed-rate leg is one window: its median is over rounds.
constexpr int64_t kFixedWindowNs = 4'000'000'000;
constexpr int64_t kStepWindowNs = 1'000'000'000;
constexpr int64_t kDrainNs = 3'000'000'000;

#ifndef LOADBENCH_BUILD_TYPE
#define LOADBENCH_BUILD_TYPE "unknown"
#endif

struct Options {
  Workload workload = Workload::kBrowse;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Fixed offered rate (operations/s); the ladder's rungs are
  /// rate * 1.1^k for k = -ladder_down .. ladder_up.
  double rate = 0;
  int ladder_down = 0;
  int ladder_up = 0;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
};

bool Wire(Workload w) { return w != Workload::kDurable; }

OpClass Headline(Workload w) {
  switch (w) {
    case Workload::kBrowse: return OpClass::kBrowse;
    case Workload::kCoordinate: return OpClass::kCoord;
    case Workload::kDurable: return OpClass::kBook;
  }
  return OpClass::kBrowse;
}

/// p99 limit of the headline class, in ns. See README.md for why browse
/// and durable sit above the 2 ms and 10 ms first proposed.
int64_t LimitNs(Workload w) {
  switch (w) {
    case Workload::kBrowse: return 5'000'000;
    case Workload::kCoordinate: return 20'000'000;
    case Workload::kDurable: return 50'000'000;
  }
  return 0;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux.
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

bool LockRankValidatorOn() { return youtopia::lockrank::ChecksEnabled(); }

// ------------------------------------------------------------ leg state

/// Completion slot of one request; written by whichever thread observes
/// the reply, published through `done_ns`.
struct Slot {
  std::atomic<int64_t> done_ns{0};
  Observed obs;
  int64_t submit_start_ns = 0;  ///< Staged path: SubmitPrepared start.
};

struct Leg {
  const Stream* stream = nullptr;
  uint64_t id_base = 0;
  int64_t start_ns = 0;
  std::unique_ptr<Slot[]> slots;
  std::atomic<size_t> completed{0};

  void Complete(size_t i, Observed obs, int64_t now) {
    slots[i].obs = std::move(obs);
    slots[i].done_ns.store(now, std::memory_order_release);
    completed.fetch_add(1, std::memory_order_acq_rel);
  }
};

Observed FromAnswers(bool ok, const std::vector<Tuple>& answers) {
  Observed obs;
  obs.ok = ok;
  for (const Tuple& t : answers) {
    if (t.size() < 2 || t.at(0).type() != youtopia::DataType::kString ||
        t.at(1).type() != youtopia::DataType::kInt64) {
      obs.ok = false;
      continue;
    }
    obs.answers.emplace_back(t.at(0).string_value(), t.at(1).int64_value());
  }
  return obs;
}

// ----------------------------------------------------------- wire client

/// The generator's side of the wire: `kConnections` sockets written by
/// the pacing thread and read by one receiver thread, speaking the
/// engine's frame protocol directly so the generator stays at two
/// threads however many connections it drives.
class WireClient {
 public:
  WireClient() = default;
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;
  ~WireClient() { Stop(); }

  bool Connect(uint16_t port) {
    for (size_t i = 0; i < kConnections; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return false;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
        ::close(fd);
        return false;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fds_.push_back(fd);
    }
    receiver_ = std::thread([this] { ReceiveLoop(); });
    return true;
  }

  void Stop() {
    for (int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    if (receiver_.joinable()) receiver_.join();
    for (int fd : fds_) ::close(fd);
    fds_.clear();
  }

  void BeginLeg(Leg* leg) { leg_.store(leg, std::memory_order_release); }

  bool Send(size_t conn, const std::string& frame) {
    size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::send(fds_[conn], frame.data() + off,
                               frame.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }


 private:
  void ReceiveLoop() {
    std::vector<youtopia::net::FrameAssembler> assemblers(fds_.size());
    std::vector<pollfd> pfds;
    for (int fd : fds_) pfds.push_back({fd, POLLIN, 0});
    std::vector<char> buf(1 << 16);
    size_t open = fds_.size();
    while (open > 0) {
      if (::poll(pfds.data(), pfds.size(), 100) < 0 && errno != EINTR) return;
      for (size_t c = 0; c < pfds.size(); ++c) {
        if (pfds[c].fd < 0 || pfds[c].revents == 0) continue;
        const ssize_t n = ::recv(pfds[c].fd, buf.data(), buf.size(), 0);
        if (n <= 0) {
          if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
          pfds[c].fd = -1;
          --open;
          continue;
        }
        assemblers[c].Append(buf.data(), static_cast<size_t>(n));
        for (;;) {
          auto frame = assemblers[c].Next();
          if (!frame.ok() || !frame->has_value()) break;
          Handle(**frame);
        }
      }
    }
  }

  Leg* LegFor(uint64_t request_id, size_t* index) const {
    Leg* leg = leg_.load(std::memory_order_acquire);
    if (leg == nullptr || request_id < leg->id_base ||
        request_id - leg->id_base >= leg->stream->requests.size()) {
      return nullptr;
    }
    *index = request_id - leg->id_base;
    return leg;
  }

  void Handle(const youtopia::net::Frame& frame) {
    namespace net = youtopia::net;
    const int64_t now = NowNs();
    size_t i = 0;
    switch (frame.type) {
      case net::MessageType::kExecuteResponse: {
        auto resp = net::DecodePayload<net::ExecuteResponse>(frame.payload);
        if (!resp.ok()) return;
        Leg* leg = LegFor(resp->request_id, &i);
        if (leg == nullptr) return;
        Observed obs;
        obs.ok = resp->status.ok();
        obs.rows = static_cast<int64_t>(resp->result.rows.size());
        leg->Complete(i, std::move(obs), now);
        return;
      }
      case net::MessageType::kSubmitResponse: {
        auto resp = net::DecodePayload<net::SubmitResponse>(frame.payload);
        if (!resp.ok()) return;
        Leg* leg = LegFor(resp->request_id, &i);
        if (leg == nullptr) return;
        if (!resp->status.ok()) {
          leg->Complete(i, Observed{}, now);
        } else if (resp->handle.done) {
          leg->Complete(i,
                        FromAnswers(resp->handle.outcome.ok(),
                                    resp->handle.answers),
                        now);
        } else {
          pending_[resp->handle.query_id] = {leg, i};
        }
        return;
      }
      case net::MessageType::kCompletionPush: {
        auto push = net::DecodePayload<net::CompletionPush>(frame.payload);
        if (!push.ok()) return;
        const auto it = pending_.find(push->query_id);
        if (it == pending_.end()) return;
        it->second.first->Complete(
            it->second.second, FromAnswers(push->outcome.ok(), push->answers),
            now);
        pending_.erase(it);
        return;
      }
      default:
        return;
    }
  }

  std::vector<int> fds_;
  std::thread receiver_;
  std::atomic<Leg*> leg_{nullptr};
  /// Receiver-thread only: engine query id -> (leg, request index).
  std::unordered_map<uint64_t, std::pair<Leg*, size_t>> pending_;
};

// ----------------------------------------------------------------- engine

struct Engine {
  std::unique_ptr<Youtopia> db;
  std::unique_ptr<youtopia::net::YoutopiaServer> server;
  std::unique_ptr<WireClient> wire;
  std::vector<uint64_t> sessions;
  std::string wal_dir;
};

youtopia::YoutopiaConfig EngineConfig(Workload w, const std::string& wal_dir) {
  youtopia::YoutopiaConfig config;
  config.executor.num_workers = kWorkers;
  config.executor.admission_high_water = kAdmissionHighWater;
  if (w == Workload::kDurable) {
    config.wal.enabled = true;
    config.wal.dir = wal_dir;
    config.wal.group_commit = true;
    config.wal.fsync = true;
    config.wal.checkpoint_on_shutdown = false;
  }
  return config;
}

/// Schema, data, standing pending pool, server start and connect.
bool SetUp(Workload w, const Dataset& data, const std::string& wal_dir,
           Engine* e) {
  e->wal_dir = wal_dir;
  if (w == Workload::kDurable) {
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
    std::filesystem::create_directories(wal_dir, ec);
  }
  e->db = std::make_unique<Youtopia>(EngineConfig(w, wal_dir));
  if (!e->db->recovery_status().ok()) return false;
  for (const std::string& script : data.load_scripts) {
    const youtopia::Status st = e->db->ExecuteScript(script);
    if (!st.ok()) {
      std::fprintf(stderr, "load: %s\n", st.ToString().c_str());
      return false;
    }
  }
  if (w == Workload::kCoordinate) {
    for (const std::string& sql : StandingPool(data, kStandingPool)) {
      auto handle = e->db->Submit(sql, "standing");
      if (!handle.ok()) return false;
    }
  }
  for (size_t i = 0; i < kConnections; ++i) {
    e->sessions.push_back(youtopia::ExecutorService::AllocateSessionId());
  }
  if (Wire(w)) {
    e->server = std::make_unique<youtopia::net::YoutopiaServer>(e->db.get());
    if (!e->server->Start().ok()) return false;
    e->wire = std::make_unique<WireClient>();
    if (!e->wire->Connect(e->server->port())) return false;
  }
  return true;
}

void TearDown(Engine* e) {
  if (e->wire) e->wire->Stop();
  e->wire.reset();
  if (e->server) e->server->Stop();
  e->server.reset();
  e->db.reset();
  e->sessions.clear();
}

// ---------------------------------------------------------- staged driver

/// The traced path: stage threads standing in for the executor's
/// workers call each layer's public functions in turn and record a span
/// around each call. Like the executor's workers, a stage thread never
/// waits on a lock: a write that loses a conflict is requeued with the
/// executor's backoff (1 ms, doubling to 64 ms, for at most 500 ms) and
/// the wait is recorded as a `txn.lock_wait` span.
class StagedDriver {
 public:
  StagedDriver(Youtopia* db, bool record) : db_(db), record_(record) {
    // Span ids stay unique across drivers and threads: 2^20 per thread.
    static std::atomic<uint32_t> drivers{0};
    const uint32_t driver = drivers.fetch_add(1);
    for (size_t t = 0; t < kWorkers; ++t) {
      buffers_.emplace_back(std::make_unique<SpanBuffer>(
          static_cast<uint32_t>((driver * kWorkers + t + 1) << 20)));
    }
    for (size_t t = 0; t < kWorkers; ++t) {
      threads_.emplace_back([this, t] { Loop(t); });
    }
  }
  StagedDriver(const StagedDriver&) = delete;
  StagedDriver& operator=(const StagedDriver&) = delete;
  ~StagedDriver() { Stop(); }

  /// Lets the stage threads finish what is queued, then joins them.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  void BeginLeg(Leg* leg) {
    std::lock_guard<std::mutex> lock(mu_);
    leg_ = leg;
  }

  void Enqueue(size_t i) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      Work work;
      work.leg = leg_;
      work.i = i;
      ready_.push_back(std::move(work));
    }
    cv_.notify_one();
  }

  /// Stops the driver and returns the spans of every thread.
  std::vector<Span> TakeSpans() {
    Stop();
    std::vector<Span> out;
    for (auto& b : buffers_) {
      out.insert(out.end(), b->spans().begin(), b->spans().end());
      b->spans().clear();
    }
    return out;
  }

  size_t write_attempts() const { return write_attempts_.load(); }
  size_t lock_conflicts() const { return lock_conflicts_.load(); }

 private:
  /// One request's progress across conflict requeues.
  struct Work {
    Leg* leg = nullptr;
    size_t i = 0;
    youtopia::PreparedStatementPtr prepared;
    uint32_t root = 0;
    int conflicts = 0;
    int64_t first_conflict_ns = 0;
    int64_t wait_from_ns = 0;
  };

  void Loop(size_t t) {
    SpanBuffer* spans = buffers_[t].get();
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      const int64_t now = NowNs();
      while (!delayed_.empty() && delayed_.begin()->first <= now) {
        ready_.push_back(std::move(delayed_.begin()->second));
        delayed_.erase(delayed_.begin());
      }
      if (!ready_.empty()) {
        Work work = std::move(ready_.front());
        ready_.pop_front();
        lock.unlock();
        Run(std::move(work), static_cast<uint32_t>(t), spans);
        lock.lock();
        continue;
      }
      if (stop_ && delayed_.empty()) return;
      if (delayed_.empty()) {
        cv_.wait(lock);
      } else {
        cv_.wait_for(lock,
                     std::chrono::nanoseconds(delayed_.begin()->first - now));
      }
    }
  }

  void Run(Work work, uint32_t thread, SpanBuffer* spans) {
    Leg* leg = work.leg;
    const size_t i = work.i;
    const Request& req = leg->stream->requests[i];
    const uint64_t rid = leg->id_base + i;
    const int64_t scheduled = leg->start_ns + req.at_ns;
    auto span = [&](SpanName name, uint32_t id, uint32_t parent, int64_t a,
                    int64_t b) {
      if (record_) spans->Add({rid, id, parent, name, req.cls, thread, a, b});
    };
    const int64_t start = NowNs();
    if (work.prepared == nullptr) {
      work.root = spans->NextId();
      span(SpanName::kQueue, spans->NextId(), work.root, scheduled, start);
      auto prepared = db_->Prepare(req.sql);
      const int64_t p1 = NowNs();
      span(SpanName::kPrepare, spans->NextId(), work.root, start, p1);
      if (!prepared.ok()) {
        span(SpanName::kRequest, work.root, 0, scheduled, p1);
        leg->Complete(i, Observed{}, p1);
        return;
      }
      work.prepared = *prepared;
      if (req.cls == OpClass::kBook) write_attempts_.fetch_add(1);
    } else {
      span(SpanName::kLockWait, spans->NextId(), work.root, work.wait_from_ns,
           start);
    }
    const int64_t s0 = NowNs();
    if (req.entangled) {
      leg->slots[i].submit_start_ns = s0;
      auto handle = db_->SubmitPrepared(*work.prepared, req.owner);
      const int64_t s1 = NowNs();
      span(SpanName::kSubmit, spans->NextId(), work.root, s0, s1);
      span(SpanName::kRequest, work.root, 0, scheduled, s1);
      if (!handle.ok()) {
        leg->Complete(i, Observed{}, s1);
        return;
      }
      handle->OnComplete([leg, i](const EntangledHandle& h) {
        const auto outcome = h.Outcome();
        leg->Complete(i, FromAnswers(outcome && outcome->ok(), h.Answers()),
                      NowNs());
      });
      return;
    }
    bool conflict = false;
    auto result = db_->ExecutePrepared(*work.prepared,
                                       youtopia::LockWait::kTry, &conflict);
    const int64_t e1 = NowNs();
    if (conflict) {
      lock_conflicts_.fetch_add(1);
      if (work.conflicts++ == 0) work.first_conflict_ns = s0;
      if (e1 - work.first_conflict_ns < 500'000'000) {
        const int64_t backoff =
            std::min<int64_t>(1'000'000LL << std::min(work.conflicts - 1, 6),
                              64'000'000);
        work.wait_from_ns = e1;
        {
          std::lock_guard<std::mutex> lock(mu_);
          delayed_.emplace(e1 + backoff, std::move(work));
        }
        cv_.notify_one();
        return;
      }
    }
    span(req.cls == OpClass::kBook ? SpanName::kExecWrite
                                   : SpanName::kExecSelect,
         spans->NextId(), work.root, s0, e1);
    span(SpanName::kRequest, work.root, 0, scheduled, e1);
    Observed obs;
    obs.ok = result.ok();
    if (result.ok()) obs.rows = static_cast<int64_t>(result->rows.size());
    leg->Complete(i, std::move(obs), e1);
  }

  Youtopia* db_;
  const bool record_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
  std::atomic<size_t> write_attempts_{0};
  std::atomic<size_t> lock_conflicts_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Work> ready_;
  /// Requeued conflicts by wake time.
  std::multimap<int64_t, Work> delayed_;
  Leg* leg_ = nullptr;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // Last: joined before the rest dies.
};

// ------------------------------------------------------------------- legs

struct LegResult {
  Recorder latency[kNumClasses];
  /// The same samples split by scheduled-arrival window.
  std::vector<Recorder> windows[kNumClasses];
  size_t backlog = 0;  ///< Requests still open when pacing ended.
  size_t attempted = 0;  ///< Operations (a group counts once).
  size_t failed = 0;
  size_t completed_ops = 0;
  Recorder lateness;
  double achieved_rps = 0;
  double cpu_s = 0;
  double wall_s = 0;
  size_t groups_closed = 0;
  size_t acked_writes = 0;
  size_t acked_submits = 0;
  std::vector<Span> spans;
  std::vector<int64_t> close_ns;  ///< Staged: closing submit -> last answer.
  /// Staged: request ids of headline operations (for a coordination, its
  /// closing member), which the breakdown is taken over.
  std::unordered_set<uint64_t> headline_ids;
  int64_t origin_ns = 0;

  const Recorder& of(OpClass c) const { return latency[static_cast<int>(c)]; }

  /// Pools another leg's samples, windows and counts into this one.
  void Merge(const LegResult& o) {
    for (int c = 0; c < kNumClasses; ++c) {
      latency[c].Merge(o.latency[c]);
      windows[c].insert(windows[c].end(), o.windows[c].begin(),
                        o.windows[c].end());
    }
    backlog = std::max(backlog, o.backlog);
    attempted += o.attempted;
    failed += o.failed;
    completed_ops += o.completed_ops;
    lateness.Merge(o.lateness);
    const double secs = wall_s + o.wall_s;
    achieved_rps =
        secs > 0 ? (achieved_rps * wall_s + o.achieved_rps * o.wall_s) / secs
                 : 0;
    cpu_s += o.cpu_s;
    wall_s = secs;
    groups_closed += o.groups_closed;
    acked_writes += o.acked_writes;
    acked_submits += o.acked_submits;
    if (origin_ns == 0) origin_ns = o.origin_ns;
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    close_ns.insert(close_ns.end(), o.close_ns.begin(), o.close_ns.end());
    headline_ids.insert(o.headline_ids.begin(), o.headline_ids.end());
  }

  /// Median over windows (of at least 100 samples) of each window's
  /// quantile; the whole leg's quantile when no window is that full.
  double WindowedUs(OpClass c, double q) const {
    std::vector<double> per;
    for (const Recorder& r : windows[static_cast<int>(c)]) {
      if (r.count() >= 100) per.push_back(r.QuantileUs(q));
    }
    return per.empty() ? of(c).QuantileUs(q) : Median(std::move(per));
  }
};

class Runner {
 public:
  Runner(const Options& opt, const Dataset& data, Engine* engine,
         Checker* checker, int round)
      : opt_(opt), data_(data), engine_(engine), checker_(checker),
        round_(round) {}

  /// Runs one open-loop leg at `rate` for `seconds` and checks its
  /// replies. `staged` (traced run only) routes it through the staged
  /// driver instead of the workload's normal path.
  LegResult RunLeg(double rate, double seconds, StagedDriver* staged,
                   int64_t window_ns = kFixedWindowNs) {
    const std::string tag = "s" + std::to_string(opt_.seed) + "r" +
                            std::to_string(round_) + "l" +
                            std::to_string(leg_counter_) + "_";
    auto stream = std::make_unique<Stream>(
        MakeStream(opt_.workload, data_, rate, seconds,
                   opt_.seed * 1000 + round_ * 100 + leg_counter_, tag));
    ++leg_counter_;
    auto leg = std::make_unique<Leg>();
    leg->stream = stream.get();
    leg->id_base = next_id_;
    next_id_ += stream->requests.size() + 1;
    leg->slots = std::make_unique<Slot[]>(stream->requests.size());

    // Pre-encode wire frames so the pacer only writes bytes.
    std::vector<std::string> frames;
    const bool wire = staged == nullptr && Wire(opt_.workload);
    if (wire) {
      namespace net = youtopia::net;
      frames.reserve(stream->requests.size());
      for (size_t i = 0; i < stream->requests.size(); ++i) {
        const Request& r = stream->requests[i];
        if (r.entangled) {
          net::SubmitRequest m;
          m.request_id = leg->id_base + i;
          m.owner = r.owner;
          m.sql = r.sql;
          frames.push_back(net::EncodeFrame(m));
        } else {
          net::ExecuteRequest m;
          m.request_id = leg->id_base + i;
          m.sql = r.sql;
          frames.push_back(net::EncodeFrame(m));
        }
      }
      engine_->wire->BeginLeg(leg.get());
    }
    if (staged != nullptr) staged->BeginLeg(leg.get());

    std::vector<int64_t> arrivals;
    arrivals.reserve(stream->requests.size());
    for (const Request& r : stream->requests) arrivals.push_back(r.at_ns);

    LegResult out;
    const double cpu0 = CpuSeconds();
    leg->start_ns = NowNs() + 1'000'000;
    out.origin_ns = leg->start_ns;
    Leg* lp = leg.get();
    PaceStats pace = Pace(arrivals, leg->start_ns, [&](size_t i) {
      const Request& r = lp->stream->requests[i];
      if (staged != nullptr) {
        staged->Enqueue(i);
      } else if (wire) {
        const size_t conn =
            r.group >= 0 ? (static_cast<size_t>(r.group) + i) % kConnections
                         : i % kConnections;
        if (!engine_->wire->Send(conn, frames[i])) {
          lp->Complete(i, Observed{}, NowNs());
        }
      } else {
        SubmitInProcess(lp, i);
      }
    });
    const int64_t paced_end = NowNs();
    const int64_t last = lp->start_ns + (arrivals.empty() ? 0 : arrivals.back());
    const size_t total = stream->requests.size();
    out.backlog = total - lp->completed.load(std::memory_order_acquire);
    while (lp->completed.load(std::memory_order_acquire) < total &&
           NowNs() < last + kDrainNs) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    out.wall_s = (NowNs() - lp->start_ns) / 1e9;
    out.cpu_s = CpuSeconds() - cpu0;
    out.lateness = std::move(pace.lateness);
    out.achieved_rps =
        stream->operations / std::max(1e-9, (paced_end - lp->start_ns) / 1e9);
    Collect(*lp, window_ns, staged != nullptr, &out);
    streams_.push_back(std::move(stream));
    legs_.push_back(std::move(leg));
    return out;
  }

 private:
  void SubmitInProcess(Leg* leg, size_t i) {
    const Request& r = leg->stream->requests[i];
    youtopia::StatementTask task;
    task.sql = r.sql;
    task.owner = r.owner;
    task.session = engine_->sessions[i % engine_->sessions.size()];
    task.kind = r.entangled ? youtopia::StatementTask::Kind::kRun
                            : youtopia::StatementTask::Kind::kExecute;
    task.wait_for_answer = r.entangled;
    const bool entangled = r.entangled;
    task.on_done = [leg, i, entangled](youtopia::Result<youtopia::RunOutcome> res) {
      Observed obs;
      if (res.ok() && entangled && res->handle) {
        const auto outcome = res->handle->Outcome();
        obs = FromAnswers(outcome && outcome->ok(), res->handle->Answers());
      } else if (res.ok() && !entangled) {
        obs.ok = true;
        obs.rows = static_cast<int64_t>(res->result.rows.size());
      }
      leg->Complete(i, std::move(obs), NowNs());
    };
    const youtopia::Status st =
        engine_->db->executor_service().Submit(std::move(task));
    if (!st.ok()) leg->Complete(i, Observed{}, NowNs());
  }

  /// Latencies from scheduled arrival; failures and requests still open
  /// after the drain enter every percentile as over the limit.
  void Collect(const Leg& leg, int64_t window_ns, bool staged,
               LegResult* out) {
    const OpClass head = Headline(opt_.workload);
    const Stream& s = *leg.stream;
    const int64_t over = LimitNs(opt_.workload) * 10;
    const size_t nwin =
        s.requests.empty()
            ? 1
            : static_cast<size_t>(s.requests.back().at_ns / window_ns) + 1;
    for (auto& w : out->windows) w.resize(nwin);
    auto record = [&](OpClass c, int64_t at, int64_t v) {
      out->latency[static_cast<int>(c)].Record(v);
      out->windows[static_cast<int>(c)][static_cast<size_t>(at / window_ns)]
          .Record(v);
    };
    std::vector<Observed> members;
    for (size_t i = 0; i < s.requests.size(); ++i) {
      const Request& r = s.requests[i];
      if (r.group >= 0) continue;
      const Slot& slot = leg.slots[i];
      const int64_t done = slot.done_ns.load(std::memory_order_acquire);
      ++out->attempted;
      if (done == 0 || !slot.obs.ok) {
        ++out->failed;
        record(r.cls, r.at_ns, over);
        checker_->OnUnacknowledged(r);
        continue;
      }
      ++out->completed_ops;
      if (r.cls == OpClass::kBook) ++out->acked_writes;
      record(r.cls, r.at_ns, done - (leg.start_ns + r.at_ns));
      if (staged && r.cls == head) out->headline_ids.insert(leg.id_base + i);
      checker_->OnRegular(r, slot.obs);
    }
    for (const Group& g : s.groups) {
      ++out->attempted;
      int64_t last_done = 0;
      int64_t last_submit = 0;
      size_t closing = 0;
      bool ok = true;
      members.clear();
      for (size_t m : g.members) {
        const Slot& slot = leg.slots[m];
        const int64_t done = slot.done_ns.load(std::memory_order_acquire);
        // An open slot may still be written by a late reply: read only
        // what `done` published.
        if (done == 0) {
          ok = false;
          members.emplace_back();
          continue;
        }
        if (!slot.obs.ok) ok = false;
        ++out->acked_submits;
        last_done = std::max(last_done, done);
        if (slot.submit_start_ns >= last_submit) {
          last_submit = slot.submit_start_ns;
          closing = m;
        }
        members.push_back(slot.obs);
      }
      if (!ok) {
        ++out->failed;
        record(OpClass::kCoord, g.last_at_ns, over);
        continue;
      }
      ++out->completed_ops;
      ++out->groups_closed;
      record(OpClass::kCoord, g.last_at_ns,
             last_done - (leg.start_ns + g.last_at_ns));
      if (staged) {
        out->close_ns.push_back(last_done - last_submit);
        if (head == OpClass::kCoord) {
          out->headline_ids.insert(leg.id_base + closing);
        }
      }
      checker_->OnGroupClosed(g, members);
    }
  }

  const Options& opt_;
  const Dataset& data_;
  Engine* engine_;
  Checker* checker_;
  const int round_;
  int leg_counter_ = 0;
  uint64_t next_id_ = 1;
  // Kept to the end of the run: late replies may still name a finished
  // leg's slots.
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<std::unique_ptr<Leg>> legs_;
};

/// A rung holds when nothing failed, the headline p99 stays under the
/// workload's limit, and the backlog left when pacing ended is no more
/// than what the limit allows in flight (a growing backlog exceeds it).
bool StepPasses(const LegResult& r, Workload w, double rate) {
  const double limit_us = LimitNs(w) / 1e3;
  const double allowed = std::max(16.0, 3.0 * rate * limit_us / 1e6);
  return r.failed == 0 && r.WindowedUs(Headline(w), 0.99) <= limit_us &&
         static_cast<double>(r.backlog) <= allowed;
}

// ----------------------------------------------------------- final state

bool ReadFinalState(Youtopia* db, bool seats, FinalState* out) {
  auto res = db->Execute("SELECT traveler, fno FROM Reservation");
  if (!res.ok()) return false;
  for (const Tuple& t : res->rows) {
    out->reservation.emplace(t.at(0).string_value(), t.at(1).int64_value());
  }
  res = db->Execute("SELECT traveler, hid FROM HotelReservation");
  if (!res.ok()) return false;
  for (const Tuple& t : res->rows) {
    out->hotel_reservation.emplace(t.at(0).string_value(),
                                   t.at(1).int64_value());
  }
  if (seats) {
    res = db->Execute("SELECT fno, seats FROM Flights");
    if (!res.ok()) return false;
    for (const Tuple& t : res->rows) {
      out->seats[t.at(0).int64_value()] = t.at(1).int64_value();
    }
    out->has_seats = true;
  }
  return true;
}

// ------------------------------------------------------ micro measurements

/// Median per-call time (ns) of `fn` over `n` calls.
template <typename Fn>
double MedianCallNs(size_t n, Fn&& fn) {
  std::vector<double> t;
  t.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t a = NowNs();
    fn(i);
    t.push_back(static_cast<double>(NowNs() - a));
  }
  return Median(std::move(t));
}

struct Micro {
  double parse_us = 0;
  double normalize_us = 0;
  double codec_ns_per_frame = 0;
};

Micro MeasureMicro(Youtopia* db, const Stream& s) {
  namespace net = youtopia::net;
  Micro m;
  const size_t n = std::min<size_t>(s.requests.size(), 2000);
  if (n == 0) return m;
  m.parse_us = MedianCallNs(n, [&](size_t i) {
                 auto st = youtopia::Parser::ParseStatement(s.requests[i].sql);
                 (void)st;
               }) / 1e3;
  std::vector<std::pair<youtopia::StatementPtr, const Request*>> entangled;
  for (size_t i = 0; i < n; ++i) {
    if (!s.requests[i].entangled) continue;
    auto st = youtopia::Parser::ParseStatement(s.requests[i].sql);
    if (st.ok() && (*st)->kind == youtopia::StatementKind::kSelect) {
      entangled.emplace_back(st.TakeValue(), &s.requests[i]);
    }
  }
  if (!entangled.empty()) {
    m.normalize_us =
        MedianCallNs(entangled.size(), [&](size_t i) {
          const auto& sel =
              static_cast<const youtopia::SelectStatement&>(*entangled[i].first);
          auto q = youtopia::Normalizer::Normalize(
              sel, 0, entangled[i].second->owner, entangled[i].second->sql);
          (void)q;
        }) / 1e3;
  }
  // The workload's own frames: its requests, plus a reply for each (the
  // SELECT's real rows, an INSERT's empty result, an entangled answer).
  std::vector<std::string> encoded;
  std::map<std::string, QueryResult> results;
  for (size_t i = 0; i < std::min<size_t>(n, 400); ++i) {
    const Request& r = s.requests[i];
    if (r.entangled) {
      net::SubmitRequest req;
      req.request_id = i;
      req.owner = r.owner;
      req.sql = r.sql;
      encoded.push_back(net::EncodeFrame(req));
      net::CompletionPush push;
      push.query_id = i;
      push.answers.push_back(
          Tuple({youtopia::Value::String(r.owner), youtopia::Value::Int64(1)}));
      encoded.push_back(net::EncodeFrame(push));
    } else {
      net::ExecuteRequest req;
      req.request_id = i;
      req.sql = r.sql;
      encoded.push_back(net::EncodeFrame(req));
      net::ExecuteResponse resp;
      resp.request_id = i;
      if (r.cls == OpClass::kBrowse) {
        auto it = results.find(r.sql);
        if (it == results.end()) {
          auto res = db->Execute(r.sql);
          it = results.emplace(r.sql, res.ok() ? *res : QueryResult{}).first;
        }
        resp.result = it->second;
      }
      encoded.push_back(net::EncodeFrame(resp));
    }
  }
  // Encode + decode each frame, median over passes.
  std::vector<double> per_frame;
  for (int pass = 0; pass < 15; ++pass) {
    const int64_t a = NowNs();
    size_t frames = 0;
    for (size_t i = 0; i < encoded.size(); ++i) {
      net::FrameAssembler assembler;
      assembler.Append(encoded[i]);
      auto frame = assembler.Next();
      if (!frame.ok() || !frame->has_value()) continue;
      const net::Frame& f = **frame;
      std::string again;
      switch (f.type) {
        case net::MessageType::kExecuteRequest: {
          auto d = net::DecodePayload<net::ExecuteRequest>(f.payload);
          if (d.ok()) again = net::EncodeFrame(*d);
          break;
        }
        case net::MessageType::kExecuteResponse: {
          auto d = net::DecodePayload<net::ExecuteResponse>(f.payload);
          if (d.ok()) again = net::EncodeFrame(*d);
          break;
        }
        case net::MessageType::kSubmitRequest: {
          auto d = net::DecodePayload<net::SubmitRequest>(f.payload);
          if (d.ok()) again = net::EncodeFrame(*d);
          break;
        }
        case net::MessageType::kCompletionPush: {
          auto d = net::DecodePayload<net::CompletionPush>(f.payload);
          if (d.ok()) again = net::EncodeFrame(*d);
          break;
        }
        default:
          break;
      }
      if (again.size() == encoded[i].size()) ++frames;
    }
    if (frames > 0) per_frame.push_back(static_cast<double>(NowNs() - a) / frames);
  }
  m.codec_ns_per_frame = Median(std::move(per_frame));
  return m;
}

// ------------------------------------------------------------- breakdown

/// Self time of each stage of the median headline request: the requests
/// of `ids` whose root span lies in the 45th-55th percentile band, with
/// each span name's self time averaged over them. The root's own self
/// time (gaps no child covers) is under SpanName::kRequest. The values
/// add up to the band's mean in-process latency, since a root's duration
/// is the sum of its children's and its own self time.
std::map<SpanName, double> MedianBreakdownUs(
    const std::vector<Span>& spans, const std::unordered_set<uint64_t>& ids) {
  std::vector<std::pair<int64_t, uint64_t>> roots;
  for (const Span& s : spans) {
    if (s.name == SpanName::kRequest && ids.count(s.request) != 0) {
      roots.emplace_back(s.end_ns - s.start_ns, s.request);
    }
  }
  std::map<SpanName, double> out;
  if (roots.empty()) return out;
  std::sort(roots.begin(), roots.end());
  const size_t lo = roots.size() * 45 / 100;
  const size_t hi = std::max(lo + 1, roots.size() * 55 / 100);
  std::unordered_set<uint64_t> band;
  for (size_t i = lo; i < hi; ++i) band.insert(roots[i].second);
  const std::map<uint32_t, int64_t> self = SelfTimes(spans);
  for (const Span& s : spans) {
    if (band.count(s.request) != 0) {
      out[s.name] += static_cast<double>(self.at(s.id)) / 1e3 / band.size();
    }
  }
  return out;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Stats {
  youtopia::CoordinatorStats coord;
  youtopia::PlanCache::Stats plan;
  youtopia::ExecutorService::Stats service;
  youtopia::wal::WalStats wal;
  youtopia::net::YoutopiaServer::Stats server;
};

Stats Snapshot(const Engine& e) {
  Stats s;
  s.coord = e.db->coordinator().stats();
  s.plan = e.db->plan_cache().stats();
  s.service = e.db->executor_service().stats();
  if (e.db->wal() != nullptr) s.wal = e.db->wal()->stats();
  if (e.server) s.server = e.server->stats();
  return s;
}

int Main(const Options& opt) {
  const Workload w = opt.workload;
  const OpClass head = Headline(w);
  SetTightTimerSlack();
  const Dataset data = MakeDataset(opt.seed);
  const std::filesystem::path out_dir(opt.out_dir);
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string wal_dir =
      (out_dir / ("wal_" + std::to_string(::getpid()))).string();

  const double S = opt.seconds;
  std::printf("workload %s seed %llu rate %.0f/s ladder x1.1^k k=%d..%d "
              "seconds %.0f trace %d\n",
              WorkloadName(w), static_cast<unsigned long long>(opt.seed),
              opt.rate, -opt.ladder_down, opt.ladder_up, S, opt.trace ? 1 : 0);

  // The untraced run measures in rounds, each on a freshly set-up engine
  // (fresh threads, fresh placement), and reports medians over all of
  // them. The traced run is one round that also climbs the ladder and
  // then runs the staged legs.
  const int rounds = opt.trace ? 1 : kRounds;
  const double fixed_s = opt.trace ? 0.25 * S : 0.8 * S / rounds;
  const double warmup_s = opt.trace ? 0.05 * S : 0.01 * S;
  Engine engine;
  std::vector<double> setup_s;
  std::vector<double> recovery_s;
  size_t recovered_records = 0;
  double peak_rss_mb = 0;
  bool correct = true;
  LegResult fixed;
  Stats before, after;
  std::vector<Metric> metrics;
  std::string breakdown;
  double sustained = 0;
  LegResult staged_off, staged_on;
  Micro micro;
  size_t write_attempts = 0, lock_conflicts = 0;
  for (int round = 0; round < rounds; ++round) {
    const bool last_round = round + 1 == rounds;
    // Set-up, several times; the last engine serves the round.
    for (int k = 0; k < kSetupsPerRound; ++k) {
      TearDown(&engine);
      const int64_t a = NowNs();
      if (!SetUp(w, data, wal_dir, &engine)) {
        std::fprintf(stderr, "set-up failed\n");
        TearDown(&engine);
        return 1;
      }
      setup_s.push_back((NowNs() - a) / 1e9);
    }
    Checker checker(&data);
    Runner runner(opt, data, &engine, &checker, round);

    // Warm-up: caches fill and lazy set-up finishes before timing.
    (void)runner.RunLeg(opt.rate, warmup_s, nullptr);
    before = Snapshot(engine);
    const LegResult leg = runner.RunLeg(opt.rate, fixed_s, nullptr);
    after = Snapshot(engine);
    std::printf("round %d: %s p50 %.1f us p99 %.1f us, cpu %.1f us/op\n",
                round, ClassName(head), leg.WindowedUs(head, 0.5),
                leg.WindowedUs(head, 0.99),
                1e6 * Ratio(leg.cpu_s, leg.completed_ops));
    fixed.Merge(leg);
    if (last_round) peak_rss_mb = PeakRssMb();

    if (opt.trace) {
      // Ladder: binary search over the fixed rungs rate * 1.1^k, starting
      // from what the fixed-rate leg (rung k = 0) showed.
      std::vector<double> rungs;
      for (int k = -opt.ladder_down; k <= opt.ladder_up; ++k) {
        rungs.push_back(opt.rate * std::pow(1.1, k));
      }
      const long fixed_idx = opt.ladder_down;
      const bool fixed_ok = StepPasses(fixed, w, opt.rate);
      long lo = fixed_ok ? fixed_idx : -1;
      long hi = fixed_ok ? static_cast<long>(rungs.size()) : fixed_idx;
      const double probes = std::ceil(std::log2(std::max(
          static_cast<double>(rungs.size()) - fixed_idx, fixed_idx + 1.0)));
      // A failed rung is tried once more: a stall of the shared machine
      // can fail a rung the engine sustains, while real overload fails
      // both tries. Time is budgeted for one retry.
      const double step_s = 0.3 * S / (std::max(1.0, probes) + 1);
      while (hi - lo > 1) {
        const long mid = (lo + hi) / 2;
        bool pass = false;
        for (int attempt = 0; attempt < 2 && !pass; ++attempt) {
          const LegResult step =
              runner.RunLeg(rungs[mid], step_s, nullptr, kStepWindowNs);
          pass = StepPasses(step, w, rungs[mid]);
          std::printf("ladder %.0f/s: %s p99 %.1f us, failed %zu/%zu, "
                      "backlog %zu, late p99 %.1f us\n",
                      rungs[mid], pass ? "pass" : "FAIL",
                      step.WindowedUs(head, 0.99), step.failed,
                      step.attempted, step.backlog,
                      step.lateness.QuantileUs(0.99));
        }
        (pass ? lo : hi) = mid;
      }
      // Below the lowest rung reads as the lowest rung over 1.1.
      sustained = lo >= 0 ? rungs[lo] : rungs.front() / 1.1;
    }
    if (opt.trace) {
      // Spans off and on, alternated, so drift over the run (growing
      // tables and log) does not read as tracing overhead.
      for (int half = 0; half < 2; ++half) {
        {
          StagedDriver off(engine.db.get(), /*record=*/false);
          staged_off.Merge(runner.RunLeg(opt.rate, 0.09 * S, &off));
        }
        StagedDriver on(engine.db.get(), /*record=*/true);
        LegResult leg = runner.RunLeg(opt.rate, 0.11 * S, &on);
        leg.spans = on.TakeSpans();
        write_attempts += on.write_attempts();
        lock_conflicts += on.lock_conflicts();
        staged_on.Merge(leg);
      }
      const Stream sample =
          MakeStream(w, data, opt.rate, 2.0, opt.seed + 77, "micro_");
      micro = MeasureMicro(engine.db.get(), sample);
    }

    // Final state: durable closes without a checkpoint and reopens.
    FinalState state;
    bool state_ok = false;
    if (w == Workload::kDurable) {
      TearDown(&engine);
      const int64_t a = NowNs();
      auto reopened = std::make_unique<Youtopia>(EngineConfig(w, wal_dir));
      recovery_s.push_back((NowNs() - a) / 1e9);
      if (reopened->recovery_status().ok()) {
        if (reopened->wal() != nullptr) {
          recovered_records = reopened->wal()->stats().recovered_records;
        }
        state_ok = ReadFinalState(reopened.get(), true, &state);
      }
      reopened.reset();
      std::filesystem::remove_all(wal_dir, ec);
    } else {
      state_ok = ReadFinalState(engine.db.get(), false, &state);
    }
    TearDown(&engine);
    if (!state_ok) {
      std::fprintf(stderr, "CHECK FAILED: cannot read final state\n");
    }
    checker.CheckFinal(state);
    correct = correct && state_ok && checker.ok();
    for (const std::string& e : checker.errors()) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    }
  }

  // Per-class report of the fixed-rate leg.
  for (int c = 0; c < kNumClasses; ++c) {
    const OpClass oc = static_cast<OpClass>(c);
    const Recorder& r = fixed.latency[c];
    if (r.count() == 0) continue;
    std::printf("fixed %s: n=%zu p50 %.1f us p99 %.1f us (whole leg), "
                "windowed p50 %.1f us p90 %.1f us p95 %.1f us p99 %.1f us\n",
                ClassName(oc), r.count(), r.QuantileUs(0.5),
                r.QuantileUs(0.99), fixed.WindowedUs(oc, 0.5),
                fixed.WindowedUs(oc, 0.9), fixed.WindowedUs(oc, 0.95),
                fixed.WindowedUs(oc, 0.99));
  }
  std::printf("fixed leg: attempted %zu failed %zu achieved %.1f/s late p99 "
              "%.1f us cpu %.3f s\n",
              fixed.attempted, fixed.failed, fixed.achieved_rps,
              fixed.lateness.QuantileUs(0.99), fixed.cpu_s);

  if (!opt.trace) {
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    metrics.push_back({"p50_us", fixed.WindowedUs(head, 0.5), "us"});
    metrics.push_back({"cpu_us_per_op",
                       1e6 * Ratio(fixed.cpu_s, fixed.completed_ops), "us"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  } else {
    const auto& c0 = before.coord;
    const auto& c1 = after.coord;
    const double match_calls = c1.match_calls - c0.match_calls;
    const double groups = c1.matched_groups - c0.matched_groups;
    const double rounds = (c1.shard_rounds - c0.shard_rounds) +
                          (c1.global_rounds - c0.global_rounds);
    const double hits = after.plan.hits - before.plan.hits;
    const double lookups = hits + (after.plan.misses - before.plan.misses);
    const double commits = fixed.acked_writes + fixed.acked_submits;
    const double busy = after.service.busy_micros - before.service.busy_micros;
    const double up = after.service.uptime_micros - before.service.uptime_micros;

    // Span durations by name over every request (the per-layer medians).
    std::map<SpanName, std::vector<double>> by_name;
    for (const Span& s : staged_on.spans) {
      by_name[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
    auto med_us = [&](SpanName n) { return Median(by_name[n]) / 1e3; };

    const double wire_p50 = fixed.of(head).QuantileUs(0.5);
    const double inproc_p50 = staged_on.of(head).QuantileUs(0.5);
    const double off_p50 = staged_off.of(head).QuantileUs(0.5);
    const double close_us =
        staged_on.close_ns.empty()
            ? 0
            : Median(std::vector<double>(staged_on.close_ns.begin(),
                                         staged_on.close_ns.end())) /
                  1e3;
    // The median headline request's stages, plus the codec cost of the
    // frames one operation puts on the wire (a request and a reply per
    // statement; a coordination's closing member adds a push), against
    // the untraced leg's end-to-end p50.
    std::map<SpanName, double> stages =
        MedianBreakdownUs(staged_on.spans, staged_on.headline_ids);
    const double frames_per_op =
        !Wire(w) ? 0 : (head == OpClass::kCoord ? 3.0 : 2.0);
    const double codec_us = frames_per_op * micro.codec_ns_per_frame / 1e3;
    double stage_sum = codec_us;
    char line[256];
    breakdown += "breakdown of the median " + std::string(ClassName(head)) +
                 " operation (" + WorkloadName(w) + "), self times:\n";
    auto row = [&](const std::string& name, double v) {
      std::snprintf(line, sizeof(line), "  %-28s %10.1f us\n", name.c_str(),
                    v);
      breakdown += line;
    };
    if (Wire(w)) row("net.codec (frames)", codec_us);
    for (const auto& [name, us] : stages) {
      row(name == SpanName::kRequest ? std::string("untimed in-process gaps")
                                     : std::string(SpanNameString(name)),
          us);
      stage_sum += us;
    }
    row("stage sum", stage_sum);
    row(std::string("end-to-end p50 (") + (Wire(w) ? "wire" : "in process") +
            ", untraced)",
        wire_p50);
    const double gap = Ratio(wire_p50 - stage_sum, wire_p50);
    std::snprintf(line, sizeof(line),
                  "  stage sum is %.1f%% %s the end-to-end p50%s\n",
                  100 * std::fabs(gap), gap >= 0 ? "below" : "above",
                  Wire(w) && gap > 0 ? " (the rest is socket and "
                                       "server-thread time no span covers)"
                                     : "");
    breakdown += line;

    metrics = {
        {"sql.parse_us", micro.parse_us, "us"},
        {"server.prepare_us", med_us(SpanName::kPrepare), "us"},
        {"server.plan_cache_hit_rate", Ratio(hits, lookups), "frac"},
        {"server.plan_cache_lookups", lookups, "count"},
        {"server.plan_cache_evictions",
         static_cast<double>(after.plan.evictions - before.plan.evictions),
         "count"},
        {"exec.select_us", med_us(SpanName::kExecSelect), "us"},
        {"exec.write_us", med_us(SpanName::kExecWrite), "us"},
        {"txn.lock_conflict_rate",
         Ratio(lock_conflicts, write_attempts), "frac"},
        {"txn.write_attempts", static_cast<double>(write_attempts), "count"},
        {"entangle.normalize_us", micro.normalize_us, "us"},
        {"entangle.submit_us", med_us(SpanName::kSubmit), "us"},
        {"entangle.close_us", close_us, "us"},
        {"entangle.match_us_per_call",
         Ratio(c1.match_micros_total - c0.match_micros_total, match_calls), "us"},
        {"entangle.steps_per_match",
         Ratio(c1.search_steps_total - c0.search_steps_total, match_calls),
         "count"},
        {"entangle.match_calls_per_group", Ratio(match_calls, groups), "count"},
        {"entangle.global_round_frac",
         Ratio(c1.global_rounds - c0.global_rounds, rounds), "frac"},
        {"entangle.failed_installs",
         static_cast<double>(c1.failed_installs - c0.failed_installs), "count"},
        {"entangle.retrigger_rounds",
         static_cast<double>(c1.retrigger_rounds - c0.retrigger_rounds),
         "count"},
        {"wal.fsyncs_per_commit",
         Ratio(after.wal.fsyncs - before.wal.fsyncs, commits), "count"},
        {"wal.records_per_batch",
         Ratio(after.wal.records_appended - before.wal.records_appended,
               after.wal.group_commit_batches - before.wal.group_commit_batches),
         "count"},
        {"wal.bytes_per_commit",
         Ratio(after.wal.bytes_appended - before.wal.bytes_appended, commits),
         "B"},
        {"wal.commits", w == Workload::kDurable ? commits : 0.0, "count"},
        {"wal.checkpoints",
         static_cast<double>(after.wal.checkpoints - before.wal.checkpoints),
         "count"},
        {"wal.recovered_records", static_cast<double>(recovered_records),
         "count"},
        {"wal.recovery_s", Median(recovery_s), "s"},
        {"service.busy_frac", Ratio(busy, up * kWorkers), "frac"},
        {"service.peak_queue_depth",
         static_cast<double>(after.service.peak_queue_depth), "count"},
        {"service.lock_requeues",
         static_cast<double>(after.service.lock_requeues -
                             before.service.lock_requeues),
         "count"},
        {"service.shed_frac",
         Ratio(after.service.shed - before.service.shed,
               after.service.submitted - before.service.submitted),
         "frac"},
        {"service.queue_wait_us", med_us(SpanName::kQueue), "us"},
        {"net.codec_ns_per_frame", Wire(w) ? micro.codec_ns_per_frame : 0.0,
         "ns"},
        {"net.wire_overhead_us", Wire(w) ? wire_p50 - inproc_p50 : 0.0, "us"},
        {"net.pushes_per_coordination",
         Ratio(after.server.pushes - before.server.pushes,
               fixed.groups_closed),
         "count"},
        {"gen.late_p99_us", fixed.lateness.QuantileUs(0.99), "us"},
        {"gen.achieved_rps", fixed.achieved_rps, "1/s"},
        {"gen.failed_frac", Ratio(fixed.failed, fixed.attempted), "frac"},
        {"e2e.sustained_rps", sustained, "1/s"},
        {"e2e.p95_us", fixed.WindowedUs(head, 0.95), "us"},
        {"e2e.p99_us", fixed.WindowedUs(head, 0.99), "us"},
        {"trace.overhead_frac", Ratio(inproc_p50 - off_p50, off_p50), "frac"},
        {"trace.stage_sum_gap_frac", gap, "frac"},
        {"trace.spans", static_cast<double>(staged_on.spans.size()), "count"},
    };
    const std::string trace_path =
        (out_dir / ("trace_" + std::string(WorkloadName(w)) + "_seed" +
                    std::to_string(opt.seed) + ".json"))
            .string();
    if (!WriteTrace(trace_path, staged_on.spans, staged_on.origin_ns)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    } else {
      std::printf("trace: %zu spans in %s\n", staged_on.spans.size(),
                  trace_path.c_str());
    }
    std::fputs(breakdown.c_str(), stdout);
  }

  for (const Metric& m : metrics) {
    std::printf("%-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  // The run profile, beside the metrics, in a file of its own.
  std::string profile =
      "{\"workload\": \"" + std::string(WorkloadName(w)) + "\", \"seed\": " +
      std::to_string(opt.seed) + ", \"trace\": " + (opt.trace ? "1" : "0") +
      ", \"commit\": \"" + JsonEscape(opt.commit) +
      "\", \"hardware_concurrency\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"build_type\": \"" LOADBENCH_BUILD_TYPE "\", \"lock_rank_validator\": " +
      (LockRankValidatorOn() ? "true" : "false") + ", \"wal_flush\": \"" +
      (w == Workload::kDurable ? "group_commit+fsync" : "off") +
      "\", \"workers\": " + std::to_string(kWorkers) +
      ", \"connections\": " + std::to_string(Wire(w) ? kConnections : 0) +
      ", \"sessions\": " + std::to_string(kConnections) +
      ", \"generator_threads\": " + std::to_string(Wire(w) ? 2 : 1) +
      ", \"admission_high_water\": " + std::to_string(kAdmissionHighWater) +
      ", \"rate\": " + Num(opt.rate) + ", \"ladder_k\": [" +
      std::to_string(-opt.ladder_down) + ", " + std::to_string(opt.ladder_up) +
      "], \"seconds\": " + Num(opt.seconds) + "}";
  std::printf("profile %s\n", profile.c_str());

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(fixed.attempted) +
                     ", \"failed\": " + std::to_string(fixed.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + Num(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  const std::string report_path =
      (out_dir / (std::string(WorkloadName(w)) + "_seed" +
                  std::to_string(opt.seed) + "_trace" +
                  (opt.trace ? "1" : "0") + ".json"))
          .string();
  if (FILE* f = std::fopen(report_path.c_str(), "w")) {
    std::fprintf(f, "{\"profile\": %s,\n \"result\": %s}\n", profile.c_str(),
                 json.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      if (!ParseWorkload(val, &opt->workload)) return false;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      opt->trace = val == "1";
    } else if (key == "--rate") {
      opt->rate = std::atof(val.c_str());
    } else if (key == "--ladder-down") {
      opt->ladder_down = std::atoi(val.c_str());
    } else if (key == "--ladder-up") {
      opt->ladder_up = std::atoi(val.c_str());
    } else if (key == "--out-dir") {
      opt->out_dir = val;
    } else if (key == "--commit") {
      opt->commit = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && opt->seconds > 0 && opt->rate > 0 &&
         opt->ladder_down >= 0 && opt->ladder_up >= 0;
}

}  // namespace
}  // namespace loadbench

int main(int argc, char** argv) {
  loadbench::Options opt;
  if (!loadbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: loadbench --workload browse|coordinate|durable "
                 "--seed N --seconds S --trace 0|1 --rate R --ladder-down A "
                 "--ladder-up B [--out-dir D] [--commit C]\n");
    return 2;
  }
  return loadbench::Main(opt);
}
